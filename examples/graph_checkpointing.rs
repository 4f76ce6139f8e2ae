//! The paper's headline workload, end to end: ORANGES graphlet counting
//! over a road-network graph, checkpointed at high frequency with every
//! method, sizes compared.
//!
//! ```sh
//! cargo run --release --example graph_checkpointing [n_vertices]
//! ```

use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::gpu_sim::Device;
use gpu_dedup_ckpt::graph::{gorder, GraphStats, PaperGraph};
use gpu_dedup_ckpt::oranges::OrangesRun;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10_000);

    // 1. Input graph, pre-processed with Gorder (§3.2).
    let graph = PaperGraph::AsiaOsm.generate(n, 42);
    let graph = gorder::reorder(&graph);
    println!(
        "input: {} — {}",
        PaperGraph::AsiaOsm.name(),
        GraphStats::compute(&graph)
    );

    // 2. Run ORANGES, capturing 10 evenly spaced GDV checkpoints.
    let mut snapshots = Vec::new();
    let mut run = OrangesRun::new(&graph);
    run.run_with_checkpoints(10, |bytes, done| {
        snapshots.push(bytes.to_vec());
        eprintln!("  checkpoint at {done}/{} roots", graph.n_vertices());
    });
    println!(
        "ORANGES done: {} graphlet instances, GDV array {} bytes\n",
        run.subgraphs_seen(),
        snapshots[0].len()
    );

    // 3. Checkpoint the same record with all four methods.
    let chunk = 128;
    let methods: Vec<(&str, Box<dyn Checkpointer>)> = [
        MethodKind::Full,
        MethodKind::Basic,
        MethodKind::List,
        MethodKind::Tree,
    ]
    .into_iter()
    .map(|kind| {
        let method = new_checkpointer(kind, Device::a100(), TreeConfig::new(chunk));
        (kind.name(), method)
    })
    .collect();
    println!(
        "{:<8} {:>14} {:>10} {:>14} {:>14}",
        "method", "record bytes", "ratio", "metadata", "modeled tp"
    );
    for (name, mut method) in methods {
        let rec = run_record(&mut *method, snapshots.iter().map(|s| s.as_slice()));
        let inc = rec.stats.excluding_first();
        println!(
            "{:<8} {:>14} {:>9.1}x {:>14} {:>11.2} GB/s",
            name,
            rec.stats.total_stored(),
            inc.ratio(),
            rec.stats.total_metadata(),
            inc.modeled_throughput() / 1e9,
        );
        // Every method's record must reproduce the exact GDV history.
        let (latest, _) =
            restore_latest_single_pass(&Device::a100(), 0, &rec.diffs).expect("restore");
        assert_eq!(&latest, snapshots.last().unwrap());
    }
    println!("\nall records restored bit-exactly ✓");
}
