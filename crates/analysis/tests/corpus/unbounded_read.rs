//! Fixture: `unbounded-read`. This file is marked `library` by the corpus
//! configuration; reads with no length cap outside tests are flagged.

use std::fs;
use std::io::{BufRead, Read};

pub fn hello<R: BufRead>(reader: &mut R) -> String {
    let mut line = String::new();
    let _ = reader.read_line(&mut line); //~ unbounded-read
    line
}

pub fn slurp<R: Read>(mut reader: R) -> Vec<u8> {
    let mut bytes = Vec::new();
    let _ = reader.read_to_end(&mut bytes); //~ unbounded-read
    let mut text = String::new();
    let _ = reader.read_to_string(&mut text); //~ unbounded-read
    bytes
}

pub fn count<R: BufRead>(reader: R) -> usize {
    reader.lines().count() //~ unbounded-read
}

pub fn words(text: &str) -> usize {
    // grass: allow(unbounded-read, "fixture: `str::lines` over text already in memory")
    text.lines().count() // suppressed: the allow names the bound
}

pub fn capped(reader: &mut impl BufRead) -> usize {
    read_line(reader, 64) // ok: a free function, not a method call
}

pub fn config(path: &str) -> std::io::Result<String> {
    std::fs::read_to_string(path) //~ unbounded-read
}

pub fn blob(path: &str) -> std::io::Result<Vec<u8>> {
    fs::read(path) //~ unbounded-read
}

pub fn listing(path: &str) -> std::io::Result<fs::ReadDir> {
    fs::read_dir(path) // ok: lists a directory, reads no file
}

pub fn own_source(path: &str) -> std::io::Result<String> {
    // grass: allow(unbounded-read, "fixture: a file this process wrote itself")
    fs::read_to_string(path) // suppressed: the allow names the bound
}

pub fn reread(path: &str) -> Option<String> {
    read(path) // ok: a free function not under `fs::`
}

pub fn lines_of(table: &Table) -> usize {
    table.lines(3) // ok: `lines` with an argument is some other method
}

fn read_line(_reader: &mut impl BufRead, cap: usize) -> usize {
    cap
}

fn read(_path: &str) -> Option<String> {
    None
}

pub struct Table;

impl Table {
    pub fn lines(&self, n: usize) -> usize {
        n
    }
}

#[cfg(test)]
mod tests {
    use std::io::BufRead;

    #[test]
    fn tests_may_read_freely() {
        let mut line = String::new();
        std::io::Cursor::new("a\n").read_line(&mut line).unwrap();
        let _ = std::fs::read_to_string("Cargo.toml");
    }
}
