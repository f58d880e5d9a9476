fn main() -> std::process::ExitCode {
    charm_benchmark::cli::main(std::env::args().skip(1).collect())
}
