//! Flat paged shadow memory for taint labels.
//!
//! The hot path of software DIFT is the per-instruction shadow lookup:
//! with a `HashMap<MemAddr, T>` every load/store pays a hash plus
//! probing, and peak-memory accounting rescans the whole map. This
//! structure replaces it with a paged dense array: a page table of
//! `Option<Box<Page>>` indexed by `addr / SHADOW_PAGE_WORDS`, where each
//! page is a flat `[T]` slab allocated on the first tainted write into
//! its range and freed as soon as its last tainted word is cleaned.
//!
//! Every mutation maintains running `tainted_words` / `shadow_bytes`
//! counters, so peak tracking is O(1) per write instead of an O(n)
//! rescan — the quadratic-peak-accounting fix rides along for free.

use crate::label::TaintLabel;
use dift_isa::{MemAddr, SHADOW_PAGE_WORDS};

struct Page<T> {
    labels: Box<[T]>,
    /// Tainted words within this page; the page is freed at zero.
    tainted: u32,
}

impl<T: TaintLabel> Page<T> {
    fn new() -> Page<T> {
        Page { labels: (0..SHADOW_PAGE_WORDS).map(|_| T::default()).collect(), tainted: 0 }
    }
}

/// Paged dense shadow array over data memory.
pub struct ShadowMap<T> {
    pages: Vec<Option<Box<Page<T>>>>,
    tainted_words: usize,
    shadow_bytes: usize,
    live_pages: usize,
    page_allocs: u64,
    page_frees: u64,
}

impl<T: TaintLabel> Default for ShadowMap<T> {
    fn default() -> Self {
        ShadowMap::new()
    }
}

impl<T: TaintLabel> ShadowMap<T> {
    pub fn new() -> ShadowMap<T> {
        ShadowMap {
            pages: Vec::new(),
            tainted_words: 0,
            shadow_bytes: 0,
            live_pages: 0,
            page_allocs: 0,
            page_frees: 0,
        }
    }

    /// Reserve page-table slots for `mem_words` of data memory so the
    /// steady state never grows the table. Pages themselves stay
    /// unallocated until tainted.
    pub fn pre_size(&mut self, mem_words: usize) {
        let pages = mem_words.div_ceil(SHADOW_PAGE_WORDS);
        if self.pages.len() < pages {
            self.pages.resize_with(pages, || None);
        }
    }

    #[inline]
    fn split(addr: MemAddr) -> (usize, usize) {
        let a = addr as usize;
        (a / SHADOW_PAGE_WORDS, a % SHADOW_PAGE_WORDS)
    }

    /// Label of `addr`; clean default when the page was never tainted.
    #[inline]
    pub fn get(&self, addr: MemAddr) -> T {
        let (p, off) = Self::split(addr);
        match self.pages.get(p) {
            Some(Some(page)) => page.labels[off].clone(),
            _ => T::default(),
        }
    }

    /// Write `label` at `addr`, maintaining the running counters.
    pub fn set(&mut self, addr: MemAddr, label: T) {
        let (p, off) = Self::split(addr);
        let clean = label.is_clean();
        if p >= self.pages.len() {
            if clean {
                return; // never materialize a page for a clean write
            }
            self.pages.resize_with(p + 1, || None);
        }
        let slot = &mut self.pages[p];
        let page = match slot {
            Some(page) => page,
            None => {
                if clean {
                    return;
                }
                self.live_pages += 1;
                self.page_allocs += 1;
                slot.insert(Box::new(Page::new()))
            }
        };
        let old = &mut page.labels[off];
        match (old.is_clean(), clean) {
            (true, false) => {
                page.tainted += 1;
                self.tainted_words += 1;
                self.shadow_bytes += label.shadow_bytes();
            }
            (false, true) => {
                page.tainted -= 1;
                self.tainted_words -= 1;
                self.shadow_bytes -= old.shadow_bytes();
            }
            (false, false) => {
                self.shadow_bytes += label.shadow_bytes();
                self.shadow_bytes -= old.shadow_bytes();
            }
            (true, true) => return, // clean over clean: nothing to record
        }
        *old = label;
        if page.tainted == 0 {
            // Last tainted word gone — return the page's slab.
            *slot = None;
            self.live_pages -= 1;
            self.page_frees += 1;
        }
    }

    /// Currently tainted words (running counter, O(1)).
    #[inline]
    pub fn tainted_words(&self) -> usize {
        self.tainted_words
    }

    /// Shadow bytes across all currently tainted words (running counter).
    #[inline]
    pub fn shadow_bytes(&self) -> usize {
        self.shadow_bytes
    }

    /// Resident (allocated) shadow pages.
    pub fn live_pages(&self) -> usize {
        self.live_pages
    }

    /// Cumulative page allocations over the map's lifetime.
    pub fn page_allocs(&self) -> u64 {
        self.page_allocs
    }

    /// Cumulative page frees (pages whose last tainted word was cleaned).
    pub fn page_frees(&self) -> u64 {
        self.page_frees
    }

    /// All tainted `(addr, label)` pairs, ascending — for tests and
    /// differential comparison against reference engines.
    pub fn iter_tainted(&self) -> impl Iterator<Item = (MemAddr, &T)> + '_ {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            page.iter().flat_map(move |page| {
                page.labels
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| !l.is_clean())
                    .map(move |(off, l)| ((p * SHADOW_PAGE_WORDS + off) as MemAddr, l))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{BitTaint, PcTaint};

    #[test]
    fn clean_writes_never_allocate() {
        let mut s = ShadowMap::<BitTaint>::new();
        s.set(0, BitTaint(false));
        s.set(1 << 40, BitTaint(false));
        assert_eq!(s.live_pages(), 0);
        assert_eq!(s.tainted_words(), 0);
        assert!(s.get(0).is_clean());
    }

    #[test]
    fn pages_allocate_on_taint_and_free_when_clean() {
        let mut s = ShadowMap::<BitTaint>::new();
        let a = (3 * SHADOW_PAGE_WORDS + 17) as MemAddr;
        s.set(a, BitTaint(true));
        assert_eq!(s.live_pages(), 1);
        assert_eq!(s.tainted_words(), 1);
        assert!(!s.get(a).is_clean());
        s.set(a, BitTaint(false));
        assert_eq!(s.live_pages(), 0, "emptied page is returned");
        assert_eq!(s.tainted_words(), 0);
        assert_eq!(s.shadow_bytes(), 0);
        // Cumulative churn counters keep counting across alloc/free.
        s.set(a, BitTaint(true));
        assert_eq!(s.page_allocs(), 2);
        assert_eq!(s.page_frees(), 1);
    }

    #[test]
    fn counters_track_label_width() {
        let mut s = ShadowMap::<PcTaint>::new();
        s.set(10, PcTaint::at(1));
        s.set(11, PcTaint::at(2));
        assert_eq!(s.shadow_bytes(), 8);
        s.set(10, PcTaint::at(9)); // tainted -> tainted, same width
        assert_eq!(s.shadow_bytes(), 8);
        s.set(11, PcTaint(0));
        assert_eq!(s.shadow_bytes(), 4);
        assert_eq!(s.tainted_words(), 1);
    }

    #[test]
    fn iter_tainted_is_sorted_and_exact() {
        let mut s = ShadowMap::<BitTaint>::new();
        for &a in &[5u64, 4096 * 2 + 1, 40, 4096 * 2] {
            s.set(a, BitTaint(true));
        }
        s.set(40, BitTaint(false));
        let got: Vec<u64> = s.iter_tainted().map(|(a, _)| a).collect();
        assert_eq!(got, vec![5, 4096 * 2, 4096 * 2 + 1]);
    }

    #[test]
    fn pre_size_reserves_table_only() {
        let mut s = ShadowMap::<BitTaint>::new();
        s.pre_size(1 << 20);
        assert_eq!(s.live_pages(), 0);
        s.set(12345, BitTaint(true));
        assert_eq!(s.live_pages(), 1);
    }
}
