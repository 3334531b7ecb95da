//! Data memory and the heap allocator.
//!
//! Memory is a flat array of `u64` words. The allocator is a first-fit
//! free list whose metadata lives *outside* the simulated memory, so a
//! buggy program can corrupt neighbouring allocations (the behaviour heap
//! overflow bugs need) but cannot corrupt the allocator itself — faults
//! stay reproducible.

use crate::effects::Fault;
use dift_isa::MemAddr;
use std::collections::BTreeMap;

/// Flat word-addressed data memory.
#[derive(Clone, Debug)]
pub struct Memory {
    words: Vec<u64>,
}

impl Memory {
    pub fn new(size: usize) -> Memory {
        Memory { words: vec![0; size] }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Read a word; out-of-range is a [`Fault`].
    #[inline]
    pub fn read(&self, addr: MemAddr) -> Result<u64, Fault> {
        self.words.get(addr as usize).copied().ok_or(Fault::OutOfBoundsMemory { addr })
    }

    /// Write a word, returning the old value; out-of-range is a [`Fault`].
    #[inline]
    pub fn write(&mut self, addr: MemAddr, value: u64) -> Result<u64, Fault> {
        match self.words.get_mut(addr as usize) {
            Some(slot) => {
                let old = *slot;
                *slot = value;
                Ok(old)
            }
            None => Err(Fault::OutOfBoundsMemory { addr }),
        }
    }

    /// Unchecked read used by inspection APIs (returns 0 out of range).
    #[inline]
    pub fn peek(&self, addr: MemAddr) -> u64 {
        self.words.get(addr as usize).copied().unwrap_or(0)
    }

    /// Snapshot of the full memory image (used by checkpointing).
    pub fn snapshot(&self) -> Vec<u64> {
        self.words.clone()
    }

    /// Restore from a snapshot taken with [`Memory::snapshot`].
    pub fn restore(&mut self, image: &[u64]) {
        self.words.clear();
        self.words.extend_from_slice(image);
    }

    /// Raw view for analyses that scan memory (e.g. checkpoint diffing).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Allocation failure reasons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    OutOfMemory,
    BadFree { addr: MemAddr },
}

/// First-fit free-list allocator over `[heap_base, heap_end)`.
#[derive(Clone, Debug)]
pub struct Allocator {
    /// Free blocks: start -> size (coalesced on free).
    free: BTreeMap<MemAddr, u64>,
    /// Live allocations: start -> size (including padding).
    live: BTreeMap<MemAddr, u64>,
    heap_base: MemAddr,
    heap_end: MemAddr,
}

impl Allocator {
    pub fn new(heap_base: MemAddr, heap_end: MemAddr) -> Allocator {
        let mut free = BTreeMap::new();
        if heap_end > heap_base {
            free.insert(heap_base, heap_end - heap_base);
        }
        Allocator { free, live: BTreeMap::new(), heap_base, heap_end }
    }

    /// Allocate `size + padding` words, first-fit. Zero-size requests
    /// round up to one word so every allocation has a distinct address.
    pub fn alloc(&mut self, size: u64, padding: u64) -> Result<MemAddr, AllocError> {
        let want = size.max(1) + padding;
        let found = self.free.iter().find(|(_, &sz)| sz >= want).map(|(&start, &sz)| (start, sz));
        let (start, sz) = found.ok_or(AllocError::OutOfMemory)?;
        self.free.remove(&start);
        if sz > want {
            self.free.insert(start + want, sz - want);
        }
        self.live.insert(start, want);
        Ok(start)
    }

    /// Release a live allocation, coalescing adjacent free blocks.
    pub fn free(&mut self, addr: MemAddr) -> Result<u64, AllocError> {
        let size = self.live.remove(&addr).ok_or(AllocError::BadFree { addr })?;
        let mut start = addr;
        let mut len = size;
        // Coalesce with the predecessor block.
        if let Some((&p_start, &p_len)) = self.free.range(..start).next_back() {
            if p_start + p_len == start {
                self.free.remove(&p_start);
                start = p_start;
                len += p_len;
            }
        }
        // Coalesce with the successor block.
        if let Some((&n_start, &n_len)) = self.free.range(start + len..).next() {
            if start + len == n_start {
                self.free.remove(&n_start);
                len += n_len;
            }
        }
        self.free.insert(start, len);
        Ok(size)
    }

    /// The live allocation *containing* `addr`, as `(start, size)`.
    pub fn block_containing(&self, addr: MemAddr) -> Option<(MemAddr, u64)> {
        let (&start, &size) = self.live.range(..=addr).next_back()?;
        (addr < start + size).then_some((start, size))
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Total live words.
    pub fn live_words(&self) -> u64 {
        self.live.values().sum()
    }

    /// Heap bounds as configured.
    pub fn bounds(&self) -> (MemAddr, MemAddr) {
        (self.heap_base, self.heap_end)
    }

    /// All live allocations as `(start, size)`, in address order.
    pub fn live_blocks(&self) -> Vec<(MemAddr, u64)> {
        self.live.iter().map(|(&a, &s)| (a, s)).collect()
    }

    /// Carve a specific `[addr, addr+size)` range out of the free list and
    /// mark it live — used when restoring a checkpointed heap layout.
    pub fn reserve(&mut self, addr: MemAddr, size: u64) -> Result<(), AllocError> {
        let (&f_start, &f_len) =
            self.free.range(..=addr).next_back().ok_or(AllocError::OutOfMemory)?;
        if addr + size > f_start + f_len {
            return Err(AllocError::OutOfMemory);
        }
        self.free.remove(&f_start);
        if addr > f_start {
            self.free.insert(f_start, addr - f_start);
        }
        let tail = (f_start + f_len) - (addr + size);
        if tail > 0 {
            self.free.insert(addr + size, tail);
        }
        self.live.insert(addr, size);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new(16);
        assert_eq!(m.write(3, 99).unwrap(), 0);
        assert_eq!(m.read(3).unwrap(), 99);
        assert_eq!(m.write(3, 1).unwrap(), 99);
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut m = Memory::new(4);
        assert_eq!(m.read(4), Err(Fault::OutOfBoundsMemory { addr: 4 }));
        assert_eq!(m.write(100, 1), Err(Fault::OutOfBoundsMemory { addr: 100 }));
        assert_eq!(m.peek(100), 0);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut m = Memory::new(8);
        m.write(1, 11).unwrap();
        let snap = m.snapshot();
        m.write(1, 22).unwrap();
        m.restore(&snap);
        assert_eq!(m.read(1).unwrap(), 11);
    }

    #[test]
    fn alloc_first_fit_and_free_coalesce() {
        let mut a = Allocator::new(100, 200);
        let b1 = a.alloc(10, 0).unwrap();
        let b2 = a.alloc(10, 0).unwrap();
        let b3 = a.alloc(10, 0).unwrap();
        assert_eq!(b1, 100);
        assert_eq!(b2, 110);
        assert_eq!(b3, 120);
        a.free(b2).unwrap();
        // Reuse of the hole.
        let b4 = a.alloc(10, 0).unwrap();
        assert_eq!(b4, 110);
        a.free(b1).unwrap();
        a.free(b4).unwrap();
        a.free(b3).unwrap();
        // Everything coalesced back into one block.
        assert_eq!(a.free.len(), 1);
        assert_eq!(a.free.get(&100), Some(&100));
    }

    #[test]
    fn alloc_padding_separates_blocks() {
        let mut a = Allocator::new(0, 100);
        let b1 = a.alloc(5, 3).unwrap();
        let b2 = a.alloc(5, 3).unwrap();
        assert_eq!(b2 - b1, 8, "padding pushes blocks apart");
    }

    #[test]
    fn double_free_is_an_error() {
        let mut a = Allocator::new(0, 50);
        let b = a.alloc(4, 0).unwrap();
        a.free(b).unwrap();
        assert_eq!(a.free(b), Err(AllocError::BadFree { addr: b }));
    }

    #[test]
    fn out_of_memory() {
        let mut a = Allocator::new(0, 10);
        assert!(a.alloc(8, 0).is_ok());
        assert_eq!(a.alloc(8, 0), Err(AllocError::OutOfMemory));
    }

    #[test]
    fn block_containing_finds_interior_addresses() {
        let mut a = Allocator::new(0, 100);
        let b = a.alloc(10, 0).unwrap();
        assert_eq!(a.block_containing(b + 5), Some((b, 10)));
        assert_eq!(a.block_containing(b + 10), None);
    }

    #[test]
    fn zero_size_allocations_get_distinct_addresses() {
        let mut a = Allocator::new(0, 10);
        let b1 = a.alloc(0, 0).unwrap();
        let b2 = a.alloc(0, 0).unwrap();
        assert_ne!(b1, b2);
    }

    #[test]
    fn live_accounting() {
        let mut a = Allocator::new(0, 100);
        let b1 = a.alloc(10, 0).unwrap();
        let _b2 = a.alloc(20, 0).unwrap();
        assert_eq!(a.live_count(), 2);
        assert_eq!(a.live_words(), 30);
        a.free(b1).unwrap();
        assert_eq!(a.live_count(), 1);
        assert_eq!(a.live_words(), 20);
    }
}
