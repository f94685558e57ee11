//! `dg_serve` — run the reputation service against a live simulation.
//!
//! ```text
//! dg_serve [--nodes N] [--seed S] [--rounds R] [--addr HOST:PORT]
//!          [--ingest-capacity C] [--round-interval-ms MS]
//!          [--traffic uniform|skewed]
//! ```
//!
//! Binds the endpoint, then drives one round every interval (default
//! 1000 ms) on the production engine, printing a stats line per round.
//! `--rounds 0` (default) runs until killed; otherwise the server exits
//! after R rounds.

use dg_serve::{ServeOptions, Server};
use dg_sim::{RunConfig, TrafficModel};

fn usage() -> ! {
    eprintln!(
        "usage: dg_serve [--nodes N] [--seed S] [--rounds R] [--addr HOST:PORT] \
         [--ingest-capacity C] [--round-interval-ms MS] [--traffic uniform|skewed]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        eprintln!("{flag} needs a value");
        usage();
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("{flag}: cannot parse {value:?}");
            usage();
        }
    }
}

fn main() {
    let mut config = RunConfig::default();
    let mut opts = ServeOptions::default();
    let mut rounds = 0usize;
    let mut interval_ms = 1000u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => config.nodes = parse("--nodes", args.next()),
            "--seed" => config.seed = parse("--seed", args.next()),
            "--rounds" => rounds = parse("--rounds", args.next()),
            "--addr" => opts.addr = parse("--addr", args.next()),
            "--ingest-capacity" => opts.ingest_capacity = parse("--ingest-capacity", args.next()),
            "--round-interval-ms" => interval_ms = parse("--round-interval-ms", args.next()),
            "--traffic" => {
                config.traffic = match args.next().as_deref() {
                    Some("uniform") => TrafficModel::full(),
                    Some("skewed") => TrafficModel::full().with_activity(0.1).with_zipf(0.8),
                    _ => usage(),
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    let mut server = match Server::start(config, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dg_serve: {e}");
            std::process::exit(1);
        }
    };
    println!("dg_serve listening on {}", server.local_addr());

    loop {
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        match server.run_round() {
            Ok(stat) => {
                println!(
                    "round {:>4}  ingested {:>6}  shed {:>6}  honest-rate {:.3}",
                    stat.round + 1,
                    stat.ingested_reports,
                    stat.ingest_shed,
                    stat.honest_service_rate(),
                );
            }
            Err(e) => {
                eprintln!("dg_serve: round failed: {e}");
                std::process::exit(1);
            }
        }
        if rounds != 0 && server.session().round() >= rounds {
            break;
        }
    }
}
