//! Table I: system configuration. Prints the resolved simulated machine at
//! paper scale and at the run's scale, and the metadata/SRAM budget claims
//! of §III-B (448 kB stage tag array at paper scale, 2 B remap entries =
//! 0.1% of memory, 32 kB remap cache). It needs no runs.

use super::{print_table, Body, Figure};
use crate::spec::RunSpec;
use crate::Params;
use baryon_cache::{CacheConfig, HierarchyConfig};
use baryon_core::budget::MetadataBudget;
use baryon_core::config::BaryonConfig;
use baryon_core::metrics::RunResult;
use baryon_mem::DeviceConfig;
use baryon_workloads::Scale;

/// The table.
pub const FIGURE: Figure = Figure {
    id: "table1",
    blurb: "Table I: resolved system configuration and SRAM budget",
    header: "config,cores,fast_bytes,slow_bytes,stage_bytes,stage_tag_sram,remap_cache_sram,remap_table_frac",
    body: Body::Runs { spec, reduce },
};

/// No runs: the table describes the machine.
fn spec(_: &Params) -> Vec<RunSpec> {
    Vec::new()
}

/// Prints the machine at divisor 1 and at `p.scale`, and returns one CSV
/// row for each.
fn reduce(p: &Params, _: &[RunResult]) -> Vec<String> {
    let mut rows = Vec::new();
    let cache = |c: &CacheConfig| {
        let kb = c.capacity() >> 10;
        format!("{}-way, {kb} kB, {}-cycle", c.ways, c.latency)
    };
    let device = |d: &DeviceConfig, bytes: u64| {
        let (ch, rk, banks) = (d.channels, d.ranks, d.banks_per_rank);
        format!(
            "{} ({} MB, {ch} ch x {rk} rk x {banks} banks)",
            d.name,
            bytes >> 20
        )
    };
    for scale in [Scale { divisor: 1 }, p.scale] {
        let cfg = BaryonConfig::default_cache_mode(scale);
        let hier = HierarchyConfig::table1_scaled(scale.divisor);
        let (dram, nvm) = (DeviceConfig::ddr4_3200(), DeviceConfig::nvm());
        let (stage_tag, remap_cache) = cfg.sram_budget();
        let remap_frac = cfg.remap_table_bytes() as f64 / (cfg.fast_bytes + cfg.slow_bytes) as f64;
        let label = match scale.divisor {
            1 => "paper (divisor 1)".to_owned(),
            d => format!("bench (divisor {d})"),
        };
        println!("\n--- {label} ---");
        println!("cores             : {} x86-64 @ 3.2 GHz", hier.cores);
        println!(
            "L1D / L2 per core : {} / {}",
            cache(&hier.l1d),
            cache(&hier.l2)
        );
        println!("LLC (shared)      : {}", cache(&hier.llc));
        println!(
            "stage tag array   : {} sets, {}-way, {}-cycle ({} kB SRAM)",
            cfg.stage_sets(),
            cfg.stage_ways,
            cfg.stage_tag_latency,
            stage_tag >> 10
        );
        println!(
            "remap cache       : {} kB, {}-cycle; FPC/BDI decompression {}-cycle",
            remap_cache >> 10,
            cfg.remap_cache_latency,
            cfg.decompress_cycles
        );
        println!("fast memory       : {}", device(&dram, cfg.fast_bytes));
        println!(
            "slow memory       : {}, rd {} cyc / wr +{} cyc",
            device(&nvm, cfg.slow_bytes),
            nvm.hit_latency,
            nvm.write_extra
        );
        println!(
            "stage area        : {} kB ({} blocks); data area {} kB",
            cfg.stage_bytes >> 10,
            cfg.stage_blocks(),
            cfg.data_area_bytes() >> 10
        );
        println!(
            "remap table       : {} kB = {:.3}% of total memory (paper: ~0.1%)",
            cfg.remap_table_bytes() >> 10,
            100.0 * remap_frac
        );
        rows.push(format!(
            "{label},{},{},{},{},{stage_tag},{remap_cache},{remap_frac:.5}",
            hier.cores, cfg.fast_bytes, cfg.slow_bytes, cfg.stage_bytes
        ));
    }

    // The §II-B/§III-B metadata-cost argument, quantified.
    let budget = MetadataBudget::of(&BaryonConfig::default_cache_mode(Scale { divisor: 1 }));
    println!(
        "\nmetadata budget   : remap table {} MB ({:.3}% of memory); a naive \
         per-sub-block scheme would be {:.0}x bigger ({} MB); total \
         controller SRAM {} kB",
        budget.remap_table_bytes >> 20,
        100.0 * budget.table_fraction(),
        budget.naive_blowup(),
        budget.naive_subblock_table_bytes >> 20,
        budget.total_sram_bytes() >> 10
    );
    print_table(FIGURE.header, &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_invariants_hold() {
        let paper = BaryonConfig::default_cache_mode(Scale { divisor: 1 });
        let (stage_tag, remap_cache) = paper.sram_budget();
        assert_eq!(stage_tag, 448 << 10, "448 kB stage tag array");
        assert_eq!(remap_cache, 32 << 10, "32 kB remap cache");
        assert_eq!(paper.stage_sets(), 8192);
    }
}
