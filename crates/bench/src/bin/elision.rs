//! `elision <experiment> [flags]`: run one experiment of the registry in
//! `elision_bench::experiments` (a paper figure, an ablation or a
//! verification gate). An unknown or missing name exits 2 with the list
//! of valid names.

use elision_bench::experiments;

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let exp = experiments::find(&name).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprintln!("usage: elision <experiment> [flags]");
        std::process::exit(2);
    });
    exp.run(argv.collect());
}
