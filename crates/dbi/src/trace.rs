//! Hot-trace formation (NET-style next-executing-tail).
//!
//! ONTRAC's second generic optimization extends intra-block static
//! dependence inference to *traces* — sequences of basic blocks that
//! execute consecutively in hot code. This module provides the runtime
//! trace builder: when a block's entry count crosses `hot_threshold` the
//! builder starts recording the block sequence the thread executes next,
//! ending at `max_blocks` or on re-entering a block already in the
//! trace (a back-edge to the head included).
//!
//! Code addresses are instruction indices, so every table is an array
//! sized by the program's text length when the builder is made: a block
//! entry costs a few indexed reads, and no table grows while the program
//! runs.

use dift_isa::Addr;
use dift_vm::ThreadId;
use std::sync::Arc;

/// Builds hot traces from a stream of block-entry events.
pub struct TraceBuilder {
    hot_threshold: u32,
    max_blocks: usize,
    /// Entries counted toward `hot_threshold`, by block address.
    counts: Vec<u32>,
    /// The formed trace per head address: its block entries, head first.
    traces: Vec<Option<Arc<[Addr]>>>,
    /// Per-thread recording in progress, head first (empty: none).
    recording: Vec<Vec<Addr>>,
}

impl TraceBuilder {
    /// A builder for a program of `text_len` instructions.
    pub fn new(text_len: usize, hot_threshold: u32, max_blocks: usize) -> TraceBuilder {
        TraceBuilder {
            hot_threshold,
            max_blocks,
            counts: vec![0; text_len],
            traces: vec![None; text_len],
            recording: Vec::new(),
        }
    }

    /// Feed one block entry. An entry outside the text is ignored.
    pub fn on_block(&mut self, tid: ThreadId, entry: Addr) {
        let a = entry as usize;
        if a >= self.counts.len() {
            return;
        }
        let t = tid as usize;
        if self.recording.len() <= t {
            self.recording.resize_with(t + 1, Vec::new);
        }
        let blocks = &mut self.recording[t];
        if let Some(&head) = blocks.first() {
            // The ending entry is not counted. A second thread that
            // re-formed the head replaces its trace.
            if blocks.len() >= self.max_blocks || blocks.contains(&entry) {
                self.traces[head as usize] = Some(std::mem::take(blocks).into());
            } else {
                blocks.push(entry);
            }
            return;
        }
        if self.traces[a].is_some() {
            return;
        }
        self.counts[a] += 1;
        if self.counts[a] >= self.hot_threshold {
            self.counts[a] = 0;
            blocks.push(entry);
        }
    }

    /// The trace formed at `head`: its block entries, head first.
    pub fn trace_at(&self, head: Addr) -> Option<&Arc<[Addr]>> {
        self.traces.get(head as usize)?.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(tb: &TraceBuilder, head: Addr) -> Option<Vec<Addr>> {
        tb.trace_at(head).map(|t| t.to_vec())
    }

    #[test]
    fn loop_forms_a_trace_at_threshold() {
        let mut tb = TraceBuilder::new(256, 3, 8);
        // Simulate a 2-block loop body: A -> B -> A -> B ...
        for _ in 0..10 {
            tb.on_block(0, 100);
            tb.on_block(0, 200);
            if tb.trace_at(100).is_some() {
                break;
            }
        }
        assert_eq!(blocks(&tb, 100), Some(vec![100, 200]), "hot loop should form a trace");
    }

    #[test]
    fn recording_stops_at_max_blocks() {
        let mut tb = TraceBuilder::new(8, 1, 3);
        // Straight-line distinct blocks.
        tb.on_block(0, 1); // hot immediately, starts recording
        tb.on_block(0, 2);
        tb.on_block(0, 3);
        assert_eq!(blocks(&tb, 1), None);
        tb.on_block(0, 4); // max_blocks reached
        assert_eq!(blocks(&tb, 1), Some(vec![1, 2, 3]));
        assert_eq!(blocks(&tb, 4), None, "the ending entry is not counted");
    }

    #[test]
    fn cold_blocks_form_no_trace() {
        let mut tb = TraceBuilder::new(8, 100, 8);
        for _ in 0..50 {
            tb.on_block(0, 7);
        }
        assert!((0..8).all(|a| tb.trace_at(a).is_none()));
    }

    #[test]
    fn per_thread_recording_is_independent() {
        let mut tb = TraceBuilder::new(32, 1, 8);
        tb.on_block(0, 10); // thread 0 starts recording at 10
        tb.on_block(1, 20); // thread 1 starts recording at 20
        tb.on_block(0, 11);
        tb.on_block(1, 21);
        tb.on_block(0, 10); // cycle back to head
        assert_eq!(blocks(&tb, 10), Some(vec![10, 11]));
        assert_eq!(blocks(&tb, 20), None);
        tb.on_block(1, 20);
        assert_eq!(blocks(&tb, 20), Some(vec![20, 21]));
    }

    #[test]
    fn existing_trace_head_is_not_recounted() {
        let mut tb = TraceBuilder::new(8, 1, 4);
        tb.on_block(0, 5);
        tb.on_block(0, 6);
        tb.on_block(0, 5);
        let formed = tb.trace_at(5).cloned().expect("the loop formed a trace");
        assert_eq!(*formed, [5, 6]);
        // Re-entering the head afterwards does not restart recording: its
        // trace stays the same allocation, while 6, recorded but never
        // counted, now forms a trace of its own.
        tb.on_block(0, 5);
        tb.on_block(0, 6);
        tb.on_block(0, 7);
        tb.on_block(0, 6);
        assert!(Arc::ptr_eq(tb.trace_at(5).unwrap(), &formed));
        assert_eq!(blocks(&tb, 6), Some(vec![6, 7]));
    }

    #[test]
    fn a_second_thread_re_forming_a_head_replaces_its_trace() {
        let mut tb = TraceBuilder::new(16, 1, 8);
        tb.on_block(0, 1); // both threads start recording at 1
        tb.on_block(1, 1);
        tb.on_block(0, 2);
        tb.on_block(0, 1);
        assert_eq!(blocks(&tb, 1), Some(vec![1, 2]));
        tb.on_block(1, 3);
        tb.on_block(1, 1);
        assert_eq!(blocks(&tb, 1), Some(vec![1, 3]));
    }

    #[test]
    fn entries_outside_the_text_are_ignored() {
        let mut tb = TraceBuilder::new(4, 1, 8);
        tb.on_block(0, 4);
        tb.on_block(0, u32::MAX);
        assert_eq!(tb.trace_at(4), None);
        // An outside entry neither starts, extends nor ends a recording.
        tb.on_block(0, 1);
        tb.on_block(0, 9);
        tb.on_block(0, 2);
        tb.on_block(0, 1);
        assert_eq!(blocks(&tb, 1), Some(vec![1, 2]));
    }
}
