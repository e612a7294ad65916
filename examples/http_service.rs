//! Drive the ECO-CHIP estimation service over a real socket.
//!
//! Boots an `ecochip-serve` server in-process on an ephemeral port (exactly
//! what `ecochip serve` runs), then acts as a client: probes `/v1/healthz`,
//! estimates a design with `POST /v1/estimate`, streams a lifetime sweep as
//! NDJSON from `POST /v1/sweep`, reads the memo counters from `/v1/stats`,
//! and finally shuts the server down gracefully.
//!
//! ```text
//! cargo run --example http_service
//! ```

use eco_chip::core::sweep::SweepPoint;
use eco_chip::serve::{client, EstimateResponse, ServeConfig, Server, StatsResponse};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Port 0 lets the OS pick a free port — the bound address is the one to
    // advertise. A production deployment would pass a fixed --addr instead.
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr().to_string();
    let handle = server.spawn();
    println!("serving on http://{addr}");

    // 1. Liveness.
    let health = client::get(&addr, "/v1/healthz")?;
    println!("healthz: {} {}", health.status, health.text()?.trim());

    // 2. One estimate: the GA102 3-chiplet testcase.
    let response = client::post_json(&addr, "/v1/estimate", r#"{"testcase":"ga102-3chiplet"}"#)?;
    let estimate: EstimateResponse = serde_json::from_str(response.text()?)?;
    println!(
        "estimate: {} → total {}, {:.1}% embodied",
        estimate.system,
        estimate.report.total(),
        estimate.embodied_fraction * 100.0
    );

    // 3. A streamed sweep: lifetime axis, one NDJSON line per point, each
    //    line arriving as soon as the engine evaluates it.
    println!("lifetime sweep (streamed):");
    client::post_ndjson(
        &addr,
        "/v1/sweep",
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime"}"#,
        |line| {
            let point: SweepPoint = serde_json::from_str(line)
                .map_err(|e| eco_chip::serve::ServeError::Http(e.to_string()))?;
            println!(
                "  {:>4}  total {:8.1} kg (operational {:5.1}%)",
                point.label,
                point.report.total().kg(),
                point.report.operational().kg() / point.report.total().kg() * 100.0
            );
            Ok(())
        },
    )?;

    // 4. The warm memo did cross-request work: later points reused the
    //    floorplans and manufacturing results of earlier ones.
    let stats = client::get(&addr, "/v1/stats")?;
    let stats: StatsResponse = serde_json::from_str(stats.text()?)?;
    println!(
        "stats: {} requests, {} points streamed, floorplan {}h/{}m, manufacturing {}h/{}m",
        stats.requests,
        stats.points_streamed,
        stats.floorplan_hits,
        stats.floorplan_misses,
        stats.manufacturing_hits,
        stats.manufacturing_misses
    );

    // 5. Graceful shutdown: in-flight requests drain, then the server exits.
    handle.shutdown()?;
    println!("server shut down cleanly");
    Ok(())
}
