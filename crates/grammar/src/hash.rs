//! A fast hasher for template sources.

use std::hash::Hasher;

/// FxHash's fold: one rotate, xor and multiply per word hashed.
///
/// A template source is a small tree of small integers.  Hashing it
/// once beats ordering it: a `BTreeMap` on the derived order compares
/// whole subtrees on every step of every lookup, and doubled the
/// grammar's lowering time.  The hash is unkeyed and sources come from
/// user HDL, so a model can be built to collide: the map decides by
/// equality, and a collision costs comparisons, never a merge.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FoldHasher(u64);

impl FoldHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}
