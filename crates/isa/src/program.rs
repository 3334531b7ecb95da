//! Programs: instruction arrays, function tables, and data images.

use crate::insn::Instruction;
use crate::{Addr, MemAddr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Function identifier (index into [`Program::funcs`]).
pub type FuncId = u32;

/// Static metadata for one function: a contiguous instruction range.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuncInfo {
    pub name: String,
    /// First instruction of the function (its entry point).
    pub entry: Addr,
    /// One past the last instruction belonging to the function.
    pub end: Addr,
}

impl FuncInfo {
    /// True when `addr` belongs to this function's body.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.entry && addr < self.end
    }
}

/// A complete executable program: code, functions, named labels, and the
/// initial data image. Programs are immutable once built; the VM and all
/// analyses share them by reference.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Program {
    instrs: Vec<Instruction>,
    funcs: Vec<FuncInfo>,
    labels: BTreeMap<String, Addr>,
    /// Initial data memory: sparse map of address -> word, applied before
    /// the machine starts.
    data: BTreeMap<MemAddr, u64>,
    entry: Addr,
}

impl Program {
    pub(crate) fn from_parts(
        instrs: Vec<Instruction>,
        funcs: Vec<FuncInfo>,
        labels: BTreeMap<String, Addr>,
        data: BTreeMap<MemAddr, u64>,
        entry: Addr,
    ) -> Self {
        Program { instrs, funcs, labels, data, entry }
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The machine's initial program counter.
    #[inline]
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Instruction at `addr`; panics on out-of-range (program addresses
    /// are validated at build time; dynamic indirect targets are checked
    /// by the VM with [`Program::get`]).
    #[inline]
    pub fn fetch(&self, addr: Addr) -> &Instruction {
        &self.instrs[addr as usize]
    }

    /// Instruction at `addr`, or `None` when out of range.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<&Instruction> {
        self.instrs.get(addr as usize)
    }

    /// All instructions in address order.
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instrs
    }

    /// The function table, in entry-address order.
    #[inline]
    pub fn funcs(&self) -> &[FuncInfo] {
        &self.funcs
    }

    /// The function containing `addr`, if any.
    pub fn func_at(&self, addr: Addr) -> Option<FuncId> {
        // Functions are contiguous and sorted by entry; binary search on
        // entry then verify containment.
        match self.funcs.binary_search_by(|f| f.entry.cmp(&addr)) {
            Ok(i) => Some(i as FuncId),
            Err(0) => None,
            Err(i) => {
                let f = &self.funcs[i - 1];
                f.contains(addr).then_some((i - 1) as FuncId)
            }
        }
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.name == name).map(|i| i as FuncId)
    }

    /// The address a named label resolves to.
    pub fn label(&self, name: &str) -> Option<Addr> {
        self.labels.get(name).copied()
    }

    /// The initial data image (sparse).
    #[inline]
    pub fn data_image(&self) -> &BTreeMap<MemAddr, u64> {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::insn::Opcode;
    use crate::reg::Reg;

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 1);
        b.call("helper");
        b.halt();
        b.func("helper");
        b.li(Reg(2), 2);
        b.ret();
        b.build().unwrap()
    }

    #[test]
    fn func_at_maps_addresses_to_functions() {
        let p = sample();
        let main = p.func_by_name("main").unwrap();
        let helper = p.func_by_name("helper").unwrap();
        assert_eq!(p.func_at(0), Some(main));
        assert_eq!(p.func_at(2), Some(main));
        assert_eq!(p.func_at(3), Some(helper));
        assert_eq!(p.func_at(4), Some(helper));
        assert_eq!(p.func_at(100), None);
    }

    #[test]
    fn entry_is_first_function() {
        let p = sample();
        assert_eq!(p.entry(), 0);
        assert!(matches!(p.fetch(0).op, Opcode::Li { .. }));
    }

    #[test]
    fn labels_resolve() {
        let p = sample();
        assert_eq!(p.label("main"), Some(0));
        assert_eq!(p.label("helper"), Some(3));
        assert_eq!(p.label("nope"), None);
    }
}
