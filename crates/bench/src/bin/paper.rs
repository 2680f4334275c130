//! `paper [--check] [artifact …]` — regenerate the paper's tables and
//! judge its claims (see [`mb_bench::paper`]).

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    mb_bench::paper::main(&args)
}
