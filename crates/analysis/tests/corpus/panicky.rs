//! Fixture: `panicky-lib`. This file is marked `library` by the corpus
//! configuration; abort paths (`unwrap`/`expect`/`panic!`/indexing) outside
//! tests are flagged.

pub fn fetch(xs: &[u64], i: usize) -> u64 {
    xs[i] //~ panicky-lib
}

pub fn first(xs: &[u64]) -> u64 {
    *xs.first().unwrap() //~ panicky-lib
}

pub fn must(path: &str) -> String {
    std::fs::read_to_string(path).expect("readable") //~ panicky-lib //~ unbounded-read
}

pub fn never(flag: bool) {
    if !flag {
        panic!("invariant violated"); //~ panicky-lib
    }
}

pub fn safe(xs: &[u64], i: usize) -> Option<u64> {
    xs.get(i).copied() // ok: non-aborting lookup
}

pub fn literal() -> [u64; 2] {
    [1, 2] // ok: an array literal, not an index expression
}

pub fn justified(xs: &[u64]) -> u64 {
    // grass: allow(panicky-lib, "fixture: slice is non-empty by construction above")
    xs[0] // suppressed: carries the invariant as its justification
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_tests_is_fine() {
        assert_eq!("7".parse::<u64>().unwrap(), fetch(&[7], 0));
    }
}
