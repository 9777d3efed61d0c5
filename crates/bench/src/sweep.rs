//! Parallel robustness sweep: accuracy across fault probability × phase
//! noise × PTC topology.
//!
//! The harness behind `examples/fault_sweep.rs`. For each topology it
//! trains the paper's proxy CNN once (variation-aware, clean hardware),
//! then freezes one fault-aware [`ExecPlan`] per grid cell — the
//! [`FaultScenario`] (dead phase shifters at probability `p`, all cells
//! sharing one fault seed so damage nests monotonically as `p` grows) and
//! the frozen phase-noise draw are baked into the plan's weights through
//! the same batched `[T, B, K]` mesh build the tape uses. Plans compile
//! sequentially, then **the cells evaluate concurrently** on
//! [`adept_tensor::gemm_thread_count`] scoped threads, each taking the next
//! cell from one shared iterator — each cell owns its plan and writes only
//! its own slot, so the grid is embarrassingly parallel and, because every
//! number is seeded, bit-stable across `ONN_THREADS`.
//!
//! The sweep ends with the recovery experiment open item 4 asks for:
//! accuracy clean → damaged (p = `recovery_p` dead shifters) → damaged
//! but *fault-aware retrained* (training runs with the scenario active,
//! so the optimizer routes around the dead hardware).

use crate::{retrain, ModelKind, RetrainSettings, Scale};
use adept_datasets::{Dataset, DatasetKind};
use adept_infer::{ExecPlan, PlanPrecision};
use adept_nn::layers::Layer;
use adept_nn::models::Backend;
use adept_nn::train::evaluate_faulted;
use adept_photonics::{DeviceCount, FaultKind, FaultScenario, Pdk};
use adept_telemetry::sync::lock_recover;
use adept_telemetry::LocalHistogram;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Grid shape + training budget of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepSettings {
    /// Training budget for the per-topology baselines.
    pub retrain: RetrainSettings,
    /// Dead-shifter probabilities (include `0.0` for the clean column).
    pub fault_levels: Vec<f64>,
    /// Phase-noise stds frozen into the compiled weights.
    pub noise_levels: Vec<f64>,
    /// Dead-shifter probability of the retraining-recovery experiment.
    pub recovery_p: f64,
    /// Master seed: datasets, training, fault sites and noise draws all
    /// derive from it, making the whole grid reproducible bit-for-bit.
    pub seed: u64,
}

impl SweepSettings {
    /// Full grid for a benchmark scale.
    pub fn for_scale(scale: Scale) -> Self {
        Self {
            retrain: RetrainSettings::for_scale(scale),
            fault_levels: vec![0.0, 0.02, 0.05, 0.1],
            noise_levels: vec![0.0, 0.01, 0.02],
            recovery_p: 0.1,
            seed: 42,
        }
    }

    /// Reduced grid for CI: smaller model/budget, 3 fault levels × 2
    /// noise levels — still ≥ 2 topologies × ≥ 3 fault levels.
    pub fn reduced() -> Self {
        Self {
            retrain: RetrainSettings {
                image_size: 8,
                channels: 4,
                model_scale: 0.3,
                n_train: 192,
                n_test: 96,
                epochs: 4,
                batch_size: 16,
                lr: 4e-3,
                noise_std: 0.02,
            },
            fault_levels: vec![0.0, 0.05, 0.1],
            noise_levels: vec![0.0, 0.02],
            recovery_p: 0.1,
            seed: 42,
        }
    }
}

/// One grid cell: a topology under a fault level and a frozen noise draw.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Topology label.
    pub topology: String,
    /// Dead-shifter probability.
    pub fault_p: f64,
    /// Phase-noise std frozen into the plan.
    pub noise_std: f64,
    /// Test accuracy in percent.
    pub accuracy_pct: f64,
    /// Median `run_batch` latency over the cell's evaluation batches, in
    /// microseconds. Timing, not accuracy: unlike every other grid number
    /// it is *not* bit-stable across machines or `ONN_THREADS` (CI strips
    /// latency columns before diffing thread legs).
    pub p50_batch_us: f64,
    /// 99th-percentile `run_batch` latency over the evaluation batches
    /// (µs); same caveat as [`SweepCell::p50_batch_us`].
    pub p99_batch_us: f64,
}

/// Per-topology facts shared by all its cells.
#[derive(Debug, Clone)]
pub struct TopologyReport {
    /// Topology label.
    pub name: String,
    /// Clean variation-aware training accuracy (%).
    pub clean_accuracy_pct: f64,
    /// PTC footprint on AMF in 1000 µm².
    pub footprint_kum2: f64,
    /// Device counts of one PTC.
    pub counts: DeviceCount,
}

/// The clean → damaged → fault-aware-retrained recovery experiment.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Topology the experiment ran on.
    pub topology: String,
    /// Dead-shifter probability of the damage.
    pub fault_p: f64,
    /// Clean-hardware baseline accuracy (%).
    pub clean_pct: f64,
    /// The clean weights evaluated on the damaged hardware (%).
    pub faulted_pct: f64,
    /// Fault-aware retraining evaluated on the same damaged hardware (%).
    pub retrained_pct: f64,
}

/// Everything one sweep run produces.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Per-topology baselines and footprints.
    pub topologies: Vec<TopologyReport>,
    /// The accuracy grid, in (topology, fault, noise) iteration order.
    pub cells: Vec<SweepCell>,
    /// The retraining-recovery experiment (first topology).
    pub recovery: RecoveryReport,
}

/// PTC device counts of a backend.
fn backend_counts(backend: &Backend) -> DeviceCount {
    match backend {
        Backend::Mzi { k } => DeviceCount::mzi_ptc(*k),
        Backend::Topology { u, v } => u.ptc_device_count(v),
    }
}

/// The dead-shifter scenario of one fault level. All levels share the
/// sweep's fault seed, so a site dead at p stays dead at every p' > p —
/// the grid degrades monotonically by construction.
fn scenario(seed: u64, p: f64) -> Option<Arc<FaultScenario>> {
    if p <= 0.0 {
        return None;
    }
    Some(Arc::new(
        FaultScenario::new(seed ^ 0xFA_017).with(FaultKind::DeadShifter { p }),
    ))
}

/// Test accuracy (%) of a compiled plan over a dataset, plus the per-call
/// `run_batch` latency distribution (a [`LocalHistogram`]: unsynchronized
/// and always recording, so the cell's timing column costs no atomics and
/// needs no `ONN_TELEMETRY`).
fn plan_accuracy(plan: &mut ExecPlan, test: &Dataset) -> (f64, LocalHistogram) {
    let in_elems = plan.input_elems();
    let classes = plan.output_features();
    let cap = plan.max_batch();
    let mut logits = vec![0.0; cap * classes];
    let images = test.images.as_slice();
    let mut lat = LocalHistogram::new();
    let mut correct = 0usize;
    let mut i = 0usize;
    while i < test.len() {
        let n = cap.min(test.len() - i);
        let t0 = Instant::now();
        plan.run_batch(
            &images[i * in_elems..(i + n) * in_elems],
            n,
            &mut logits[..n * classes],
        );
        lat.record_duration(t0.elapsed());
        for r in 0..n {
            let row = &logits[r * classes..(r + 1) * classes];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map_or(0, |(c, _)| c);
            correct += usize::from(pred == test.labels[i + r]);
        }
        i += n;
    }
    (100.0 * correct as f64 / test.len() as f64, lat)
}

/// Histogram-bucket quantile in microseconds (bucket bounds are ns).
fn quantile_us(lat: &LocalHistogram, p: f64) -> f64 {
    lat.quantile(p) as f64 / 1_000.0
}

/// Runs the sweep: trains one clean baseline per topology, compiles one
/// fault-aware plan per grid cell, evaluates the cells concurrently on
/// scoped threads, and finishes with the p = `recovery_p` fault-aware
/// retraining experiment on the first topology.
pub fn run_sweep(topologies: &[(String, Backend)], settings: &SweepSettings) -> SweepOutcome {
    assert!(!topologies.is_empty(), "sweep needs at least one topology");
    let s = &settings.retrain;
    let dataset = DatasetKind::MnistLike;
    let pdk = Pdk::amf();

    // Phase 1 (sequential): per-topology clean training + per-cell plan
    // compilation.
    let mut reports = Vec::new();
    let mut bundles = Vec::new();
    let mut cells: Vec<SweepCell> = Vec::new();
    let mut plans: Vec<ExecPlan> = Vec::new();
    for (name, backend) in topologies {
        let outcome = retrain(ModelKind::Proxy, dataset, backend, s, settings.seed);
        let counts = backend_counts(backend);
        reports.push(TopologyReport {
            name: name.clone(),
            clean_accuracy_pct: outcome.accuracy_pct,
            footprint_kum2: counts.footprint_kum2(&pdk),
            counts,
        });
        let mut bundle = outcome.model;
        let shape = [dataset.channels(), s.image_size, s.image_size];
        for &p in &settings.fault_levels {
            for &sigma in &settings.noise_levels {
                bundle.model.set_phase_noise(sigma);
                let plan = ExecPlan::compile_faulted(
                    &bundle.model,
                    &bundle.store,
                    &shape,
                    s.batch_size,
                    settings.seed ^ 0x5EED,
                    scenario(settings.seed, p),
                    PlanPrecision::F64,
                )
                .expect("proxy CNN lowers");
                bundle.model.set_phase_noise(0.0);
                cells.push(SweepCell {
                    topology: name.clone(),
                    fault_p: p,
                    noise_std: sigma,
                    accuracy_pct: 0.0,
                    p50_batch_us: 0.0,
                    p99_batch_us: 0.0,
                });
                plans.push(plan);
            }
        }
        bundles.push(bundle);
    }

    // Phase 2 (concurrent): every cell owns its plan, so the whole grid
    // evaluates in parallel. At most `ONN_THREADS` cells run at once, each
    // thread taking the next (cell, plan) pair. Results are seeded and
    // land in disjoint slots — bit-stable at any thread count.
    let test = &bundles[0].test;
    let threads = adept_tensor::gemm_thread_count().min(cells.len());
    let pending = Mutex::new(cells.iter_mut().zip(plans.iter_mut()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = lock_recover(&pending).next();
                let Some((cell, plan)) = next else { break };
                let (acc, lat) = plan_accuracy(plan, test);
                cell.accuracy_pct = acc;
                cell.p50_batch_us = quantile_us(&lat, 50.0);
                cell.p99_batch_us = quantile_us(&lat, 99.0);
            });
        }
    });

    // Phase 3: recovery experiment on the first topology — same damaged
    // hardware, with and without fault-aware retraining.
    let (name, backend) = &topologies[0];
    let damage = scenario(settings.seed, settings.recovery_p).expect("recovery_p > 0");
    let clean = &mut bundles[0];
    let faulted_pct = 100.0
        * evaluate_faulted(
            &mut clean.model,
            &clean.store,
            &clean.test,
            s.batch_size,
            0,
            &damage,
        );
    let retrained = crate::retrain_faulted(
        ModelKind::Proxy,
        dataset,
        backend,
        s,
        settings.seed,
        (*damage).clone(),
    );
    let recovery = RecoveryReport {
        topology: name.clone(),
        fault_p: settings.recovery_p,
        clean_pct: reports[0].clean_accuracy_pct,
        faulted_pct,
        retrained_pct: retrained.accuracy_pct,
    };

    SweepOutcome {
        topologies: reports,
        cells,
        recovery,
    }
}

/// Serializes a sweep outcome as the `BENCH_robustness.json` document.
pub fn robustness_json(outcome: &SweepOutcome) -> String {
    let mut s = String::from("{\n  \"schema\": \"robustness_grid\",\n  \"topologies\": {\n");
    for (i, t) in outcome.topologies.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {{\"clean_accuracy_pct\": {:.4}, \"footprint_kum2\": {:.1}, \"ps\": {}, \"dc\": {}, \"cr\": {}, \"blocks\": {}}}{}\n",
            t.name,
            t.clean_accuracy_pct,
            t.footprint_kum2,
            t.counts.ps,
            t.counts.dc,
            t.counts.cr,
            t.counts.blocks,
            if i + 1 < outcome.topologies.len() { "," } else { "" },
        ));
    }
    s.push_str("  },\n  \"grid\": [\n");
    for (i, c) in outcome.cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"topology\": \"{}\", \"fault_p\": {}, \"noise_std\": {}, \"accuracy_pct\": {:.4}, \"p50_batch_us\": {:.1}, \"p99_batch_us\": {:.1}}}{}\n",
            c.topology,
            c.fault_p,
            c.noise_std,
            c.accuracy_pct,
            c.p50_batch_us,
            c.p99_batch_us,
            if i + 1 < outcome.cells.len() { "," } else { "" },
        ));
    }
    let r = &outcome.recovery;
    s.push_str(&format!(
        "  ],\n  \"recovery\": {{\"topology\": \"{}\", \"fault_p\": {}, \"clean_pct\": {:.4}, \"faulted_pct\": {:.4}, \"retrained_pct\": {:.4}}}\n}}\n",
        r.topology, r.fault_p, r.clean_pct, r.faulted_pct, r.retrained_pct,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_fault_seed_nests_damage_monotonically() {
        let lo = scenario(7, 0.05).unwrap();
        let hi = scenario(7, 0.2).unwrap();
        for wire in 0..64u32 {
            let site = FaultScenario::shifter_site("w.u0", 3, wire as usize);
            let dead_lo = lo.apply_phase(site, 1.0) == 0.0;
            let dead_hi = hi.apply_phase(site, 1.0) == 0.0;
            assert!(
                !dead_lo || dead_hi,
                "site dead at p=0.05 must stay dead at p=0.2"
            );
        }
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let outcome = SweepOutcome {
            topologies: vec![TopologyReport {
                name: "butterfly8".into(),
                clean_accuracy_pct: 90.0,
                footprint_kum2: 972.0,
                counts: DeviceCount::new(1, 2, 3, 4),
            }],
            cells: vec![SweepCell {
                topology: "butterfly8".into(),
                fault_p: 0.1,
                noise_std: 0.02,
                accuracy_pct: 80.5,
                p50_batch_us: 120.0,
                p99_batch_us: 450.5,
            }],
            recovery: RecoveryReport {
                topology: "butterfly8".into(),
                fault_p: 0.1,
                clean_pct: 90.0,
                faulted_pct: 60.0,
                retrained_pct: 87.0,
            },
        };
        let json = robustness_json(&outcome);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"robustness_grid\""));
        assert!(json.contains("\"accuracy_pct\": 80.5000"));
        assert!(json.contains("\"p50_batch_us\": 120.0"));
        assert!(json.contains("\"p99_batch_us\": 450.5"));
        assert!(json.contains("\"retrained_pct\": 87.0000"));
    }
}
