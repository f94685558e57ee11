//! `dg_store same <a> <b>` applies [`dg_store::same`] and, for two
//! stores, prints their `HEAD.json` format versions as `<a> <b>`.
//! `dg_store cut <dir> --last-delta | --to-epoch` applies
//! [`dg_store::Store::cut`] and prints `<round> <span>` per dropped delta.
//! Exit status 1 names the first file at fault; 2 is a usage error.

#![forbid(unsafe_code)]

use dg_store::{same, Cut, Store};
use std::path::Path;

/// One `<x> <y>` line per pair.
fn print_pairs<T: std::fmt::Display>(pairs: impl IntoIterator<Item = (T, T)>) {
    for (x, y) in pairs {
        println!("{x} {y}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let done = match args[..] {
        ["same", a, b] => same(Path::new(a), Path::new(b)).map(print_pairs),
        ["cut", dir, "--last-delta"] => Store::open(dir).cut(Cut::LastDelta).map(print_pairs),
        ["cut", dir, "--to-epoch"] => Store::open(dir).cut(Cut::ToEpoch).map(print_pairs),
        _ => {
            eprintln!("usage: dg_store same <a> <b> | dg_store cut <dir> --last-delta|--to-epoch");
            std::process::exit(2);
        }
    };
    if let Err(e) = done {
        eprintln!("dg_store: {e}");
        std::process::exit(1);
    }
}
