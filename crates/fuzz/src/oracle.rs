//! The differential oracle: one case, every engine, exact agreement.
//!
//! The comparison matrix (DESIGN.md §6):
//!
//! 1. legacy [`Emulator`] vs pre-decoded [`DecodedEmulator`] — must be
//!    bit-identical on outcome *or error*, step count, and the Expect /
//!    taken-branch statistics; the decoded run is the *profiled*
//!    monomorphization, whose Expect counts then drive stage 1½: the
//!    profile-guided [`fuse`] pass rewrites the decoded program and the
//!    fused engine must match legacy bit for bit too — every generated
//!    program cross-checks superinstruction fusion from day one;
//!    finally, in stage 1¾, the same query is run three times through
//!    the pooled batch executor ([`batch::run_batch`], the
//!    statistics-free serving loop) on the decoded program and three
//!    times on the fused one (the `symbol-serve --fused` path), all on
//!    one reused pool, and every copy must reproduce the legacy result
//!    and step count exactly — the serving tier's bit-identical
//!    contract, cross-checked on every generated program;
//! 2. when the sequential run is clean, the program is compacted for a
//!    small matrix of `(mode, machine)` configurations via
//!    [`try_compact`] — an illegal schedule is a finding, and
//!    [`verify_program`] is asserted on every schedule besides — then
//!    the legacy [`VliwSim`] and pre-decoded [`DecodedVliwSim`] must
//!    return exactly equal [`SimResult`](symbol_vliw::SimResult)s whose outcome matches the
//!    sequential one;
//! 3. Prolog cases additionally check the generator's predicted
//!    outcome.
//!
//! A sequential *error* (bad address, division by zero, step limit)
//! ends the comparison after stage 1: speculation is allowed to dismiss
//! faults, so the VLIW machines have no obligation to reproduce them.

use symbol_compactor::{try_compact, verify_program, CompactMode, TracePolicy};
use symbol_core::Compiled;
use symbol_intcode::emu::ExecConfig;
use symbol_intcode::fuse::{fuse, FuseConfig};
use symbol_intcode::{
    batch, DecodedEmulator, DecodedProgram, Emulator, IciProgram, Layout, Outcome,
};
use symbol_obs::Registry;
use symbol_vliw::{DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig, SimOutcome, VliwSim};

use crate::gen_intcode::{frag_layout, IntFrag};
use crate::gen_prolog::PrologCase;

/// One fuzz case at either generation level.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Case {
    /// A Prolog program through the full pipeline.
    Prolog(PrologCase),
    /// A raw IntCode fragment fed straight to the engines.
    IntCode(IntFrag),
}

impl Case {
    /// Short kind name used in filenames and reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Case::Prolog(_) => "prolog",
            Case::IntCode(_) => "intcode",
        }
    }
}

/// Oracle knobs.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Step limit for the sequential engines (fragments and generated
    /// programs are tiny; hitting this usually means a lost loop bound).
    pub max_steps: u64,
    /// Whether to run the compaction + VLIW stage.
    pub check_vliw: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            max_steps: 200_000,
            check_vliw: true,
        }
    }
}

/// Classification of a finding. Shrinking preserves the kind: a
/// candidate only replaces the case if it fails with an equal kind, so
/// a reproducer never drifts to a different bug while shrinking.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// The generated Prolog source failed to compile — a generator or
    /// front-end bug.
    Pipeline,
    /// The fragment failed [`IciProgram::new`] validation — a
    /// generator or shrinker bug.
    Build,
    /// The two sequential engines disagree.
    SeqDivergence,
    /// The profile-guided fused engine disagrees with the legacy
    /// engine (a fusion-pass or fused-step-loop bug).
    FusedDivergence,
    /// The pooled concurrent batch executor, on the decoded or the
    /// fused program, disagrees with the sequential engine (a
    /// state-pooling or reset bug: a query saw a neighbour's leftover
    /// heap/trail, or chunking perturbed order; or a statistics-free
    /// step-loop bug).
    BatchDivergence,
    /// Clean run, wrong answer against the generator's prediction.
    Expectation,
    /// [`try_compact`] (or the explicit [`verify_program`] hook)
    /// rejected the schedule for configuration `i`.
    CompactViolation(usize),
    /// The two VLIW simulators disagree for configuration `i`.
    VliwDivergence(usize),
    /// The VLIW outcome differs from the sequential outcome (or a clean
    /// sequential run failed to simulate) for configuration `i`.
    OutcomeDrift(usize),
    /// Something panicked while the case was being processed.
    Panic,
}

impl FailureKind {
    /// Stable text tag (also the corpus-file vocabulary).
    pub fn tag(&self) -> String {
        match self {
            FailureKind::Pipeline => "pipeline".into(),
            FailureKind::Build => "build".into(),
            FailureKind::SeqDivergence => "seq-divergence".into(),
            FailureKind::FusedDivergence => "fused-divergence".into(),
            FailureKind::BatchDivergence => "batch-divergence".into(),
            FailureKind::Expectation => "expectation".into(),
            FailureKind::CompactViolation(i) => format!("compact-violation-{i}"),
            FailureKind::VliwDivergence(i) => format!("vliw-divergence-{i}"),
            FailureKind::OutcomeDrift(i) => format!("outcome-drift-{i}"),
            FailureKind::Panic => "panic".into(),
        }
    }

    /// Parses a [`FailureKind::tag`] back.
    pub fn from_tag(s: &str) -> Option<FailureKind> {
        let indexed =
            |prefix: &str| -> Option<usize> { s.strip_prefix(prefix).and_then(|n| n.parse().ok()) };
        match s {
            "pipeline" => Some(FailureKind::Pipeline),
            "build" => Some(FailureKind::Build),
            "seq-divergence" => Some(FailureKind::SeqDivergence),
            "fused-divergence" => Some(FailureKind::FusedDivergence),
            "batch-divergence" => Some(FailureKind::BatchDivergence),
            "expectation" => Some(FailureKind::Expectation),
            "panic" => Some(FailureKind::Panic),
            _ => indexed("compact-violation-")
                .map(FailureKind::CompactViolation)
                .or_else(|| indexed("vliw-divergence-").map(FailureKind::VliwDivergence))
                .or_else(|| indexed("outcome-drift-").map(FailureKind::OutcomeDrift)),
        }
    }
}

/// A classified finding with a human-readable diagnosis.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The classification (the shrinker's equivalence key).
    pub kind: FailureKind,
    /// What exactly disagreed.
    pub detail: String,
}

/// The compaction configurations every clean case is pushed through.
/// Index = the `usize` in the indexed [`FailureKind`]s.
pub fn vliw_configs() -> Vec<(CompactMode, MachineConfig, &'static str)> {
    vec![
        (
            CompactMode::TraceSchedule,
            MachineConfig::units(3),
            "trace/u3",
        ),
        (
            CompactMode::TraceSchedule,
            MachineConfig::prototype(),
            "trace/proto",
        ),
        (CompactMode::BasicBlock, MachineConfig::units(2), "bb/u2"),
        (CompactMode::BamGroups, MachineConfig::bam(), "bam"),
    ]
}

/// The memory layout Prolog cases execute under: big enough for any
/// generated query, small enough that per-case engine setup is cheap.
pub fn prolog_layout() -> Layout {
    Layout {
        heap_size: 1 << 14,
        env_size: 1 << 13,
        cp_size: 1 << 13,
        trail_size: 1 << 13,
        pdl_size: 1 << 10,
    }
}

/// Runs the full oracle matrix on one case.
///
/// # Errors
///
/// The first [`Failure`] found, in matrix order.
pub fn run_case(case: &Case, cfg: &OracleConfig) -> Result<(), Failure> {
    match case {
        Case::Prolog(p) => {
            let compiled =
                Compiled::from_source_obs(&p.source, prolog_layout(), &Registry::disabled(), "")
                    .map_err(|e| Failure {
                        kind: FailureKind::Pipeline,
                        detail: e.to_string(),
                    })?;
            check_program(&compiled.ici, &compiled.layout, Some(p.expected), cfg)
        }
        Case::IntCode(frag) => {
            let ici = frag.build().map_err(|e| Failure {
                kind: FailureKind::Build,
                detail: e.to_string(),
            })?;
            check_program(&ici, &frag_layout(), None, cfg)
        }
    }
}

fn check_program(
    ici: &IciProgram,
    layout: &Layout,
    expected: Option<Outcome>,
    cfg: &OracleConfig,
) -> Result<(), Failure> {
    let exec_cfg = ExecConfig {
        max_steps: cfg.max_steps,
    };

    // Stage 1: the two sequential engines, compared bit for bit.
    let (lr, lstats, lsteps) = Emulator::new(ici, layout).run_with_stats(&exec_cfg);
    let decoded = DecodedProgram::new(ici);
    let (dr, dstats, dsteps, _) =
        DecodedEmulator::new(&decoded, layout).run_with_profile(&exec_cfg);
    if lr != dr
        || lsteps != dsteps
        || lstats.expect != dstats.expect
        || lstats.taken != dstats.taken
    {
        return Err(Failure {
            kind: FailureKind::SeqDivergence,
            detail: format!("legacy: {lr:?} in {lsteps} steps; decoded: {dr:?} in {dsteps} steps"),
        });
    }

    // Stage 1½: the profile-guided fused engine, against the legacy
    // baseline. Fusion must be behavior-preserving on *every* program
    // the generator can produce, errors and step limits included.
    let (fused, _report) = fuse(&decoded, &dstats, &FuseConfig::default());
    let (fr, fstats, fsteps) = DecodedEmulator::new(&fused, layout).run_with_stats(&exec_cfg);
    if lr != fr
        || lsteps != fsteps
        || lstats.expect != fstats.expect
        || lstats.taken != fstats.taken
    {
        return Err(Failure {
            kind: FailureKind::FusedDivergence,
            detail: format!("legacy: {lr:?} in {lsteps} steps; fused: {fr:?} in {fsteps} steps"),
        });
    }

    // Stage 1¾: the pooled batch executor, on the decoded and on the
    // fused program. Three copies of the same query per tier, all six
    // on one pool: every copy must reproduce the sequential run bit for
    // bit — result, error, and step count — errors and step limits
    // included. A divergence here means pooled engine state leaked
    // between queries or the statistics-free loop runs a record
    // differently, the exact bugs the serving tier must never have.
    let mut pool = batch::ArenaPool::new();
    for (tier, program) in [("decoded", &decoded), ("fused", &fused)] {
        let batch = batch::run_batch(program, layout, &[exec_cfg; 3], &mut pool);
        for (i, b) in batch.iter().enumerate() {
            if b.result != lr || b.steps != lsteps {
                return Err(Failure {
                    kind: FailureKind::BatchDivergence,
                    detail: format!(
                        "sequential: {lr:?} in {lsteps} steps; {tier} batch query {i}/3: \
                         {:?} in {} steps",
                        b.result, b.steps
                    ),
                });
            }
        }
    }

    let outcome = match &lr {
        Ok(o) => *o,
        Err(e) => {
            // A machine fault ends the differential: speculation may
            // legitimately dismiss it on the VLIW machines. It still
            // counts against a generator prediction, which only ever
            // promises Success or Failure.
            if let Some(exp) = expected {
                return Err(Failure {
                    kind: FailureKind::Expectation,
                    detail: format!("expected {exp:?}, sequential run errored: {e}"),
                });
            }
            return Ok(());
        }
    };
    if let Some(exp) = expected {
        if exp != outcome {
            return Err(Failure {
                kind: FailureKind::Expectation,
                detail: format!("expected {exp:?}, got {outcome:?}"),
            });
        }
    }
    if !cfg.check_vliw {
        return Ok(());
    }

    // Stage 2: compaction + the two VLIW simulators, per configuration.
    let sim_cfg = SimConfig {
        max_cycles: cfg.max_steps.saturating_mul(8).saturating_add(10_000),
    };
    for (i, (mode, machine, name)) in vliw_configs().into_iter().enumerate() {
        let compacted = try_compact(ici, &lstats, &machine, mode, &TracePolicy::default())
            .map_err(|v| Failure {
                kind: FailureKind::CompactViolation(i),
                detail: format!("{name}: {v}"),
            })?;
        // try_compact already verified; assert the hook explicitly so a
        // future refactor cannot silently drop the check.
        if let Err(v) = verify_program(&compacted.program, &machine) {
            return Err(Failure {
                kind: FailureKind::CompactViolation(i),
                detail: format!("{name} (post-hoc verify): {v}"),
            });
        }

        let legacy = VliwSim::new(&compacted.program, machine, layout).run(&sim_cfg);
        let dvliw = DecodedVliw::new(&compacted.program, machine);
        let dec = DecodedVliwSim::new(&dvliw, layout).run(&sim_cfg);
        if legacy != dec {
            return Err(Failure {
                kind: FailureKind::VliwDivergence(i),
                detail: format!("{name}: legacy {legacy:?} vs decoded {dec:?}"),
            });
        }
        match legacy {
            Ok(r) => {
                let sim_out = match r.outcome {
                    SimOutcome::Success => Outcome::Success,
                    SimOutcome::Failure => Outcome::Failure,
                };
                if sim_out != outcome {
                    return Err(Failure {
                        kind: FailureKind::OutcomeDrift(i),
                        detail: format!("{name}: sequential {outcome:?} vs simulated {sim_out:?}"),
                    });
                }
            }
            Err(e) => {
                return Err(Failure {
                    kind: FailureKind::OutcomeDrift(i),
                    detail: format!("{name}: clean sequential run, but the simulator errored: {e}"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use symbol_intcode::{Label, Op};

    #[test]
    fn failure_tags_round_trip() {
        let kinds = [
            FailureKind::Pipeline,
            FailureKind::Build,
            FailureKind::SeqDivergence,
            FailureKind::FusedDivergence,
            FailureKind::BatchDivergence,
            FailureKind::Expectation,
            FailureKind::CompactViolation(2),
            FailureKind::VliwDivergence(0),
            FailureKind::OutcomeDrift(3),
            FailureKind::Panic,
        ];
        for k in kinds {
            assert_eq!(FailureKind::from_tag(&k.tag()), Some(k.clone()), "{k:?}");
        }
        assert_eq!(FailureKind::from_tag("nonsense"), None);
    }

    #[test]
    fn a_correct_program_passes_the_whole_matrix() {
        let case = Case::Prolog(PrologCase {
            source: "main :- X is 2 + 3, X =:= 5.".into(),
            expected: Outcome::Success,
        });
        run_case(&case, &OracleConfig::default()).unwrap();
    }

    #[test]
    fn a_wrong_expectation_is_caught() {
        let case = Case::Prolog(PrologCase {
            source: "main :- X is 2 + 3, X =:= 5.".into(),
            expected: Outcome::Failure,
        });
        let f = run_case(&case, &OracleConfig::default()).unwrap_err();
        assert_eq!(f.kind, FailureKind::Expectation);
    }

    #[test]
    fn a_trivial_fragment_passes() {
        let case = Case::IntCode(IntFrag {
            ops: vec![Op::Halt { success: true }],
        });
        run_case(&case, &OracleConfig::default()).unwrap();
    }

    #[test]
    fn an_unparseable_program_is_a_pipeline_failure() {
        let case = Case::Prolog(PrologCase {
            source: "main :- ???!!!".into(),
            expected: Outcome::Success,
        });
        let f = run_case(&case, &OracleConfig::default()).unwrap_err();
        assert_eq!(f.kind, FailureKind::Pipeline);
    }

    #[test]
    fn a_dangling_fragment_is_a_build_failure() {
        // A single jump to label 5 with only one op: target unbound.
        let mut frag = IntFrag {
            ops: vec![Op::Jmp { t: Label(0) }, Op::Halt { success: true }],
        };
        frag.ops[0] = Op::Jmp { t: Label(9) };
        let f = run_case(&Case::IntCode(frag), &OracleConfig::default()).unwrap_err();
        assert_eq!(f.kind, FailureKind::Build);
    }

    #[test]
    fn generated_fragments_pass_the_sequential_stage() {
        // A smoke sweep with the VLIW stage off (the full matrix runs
        // in the driver's own tests and in CI's fuzz-smoke job).
        let cfg = OracleConfig {
            check_vliw: false,
            ..OracleConfig::default()
        };
        for seed in 0..100u64 {
            let frag = crate::gen_intcode::generate(&mut Rng::new(seed));
            run_case(&Case::IntCode(frag), &cfg)
                .unwrap_or_else(|f| panic!("seed {seed}: {:?} {}", f.kind, f.detail));
        }
    }
}
