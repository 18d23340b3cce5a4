//! `als-lint` — the workspace static-analysis CLI. All logic lives in the
//! library (`als_lint::cli_main`).

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::ExitCode::from(als_lint::cli_main(&args))
}
