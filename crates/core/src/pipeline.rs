//! The evaluation-system pipeline (paper Figure 1): Prolog source →
//! BAM → IntCode → sequential emulation, producing the compiled
//! artifacts and statistics every experiment consumes.

use std::error::Error;
use std::fmt;

use symbol_bam::BamProgram;
use symbol_intcode::batch::{self, ArenaPool, BatchOutcome};
use symbol_intcode::decode::{DecodedEmulator, DecodedProgram, ExecProfile};
use symbol_intcode::emu::{ExecConfig, ExecStats, Outcome, RunResult};
use symbol_intcode::fuse::{self, FuseConfig, FusionReport};
use symbol_intcode::layout::Layout;
use symbol_intcode::program::IciProgram;
use symbol_intcode::translate::{self, TranslateError};
use symbol_obs::Registry;
use symbol_prolog::{ParseError, PredId, Program};
use symbol_vliw::{
    DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig, SimOutcome, SimResult, VliwProgram,
};

/// Any error the pipeline can produce.
#[derive(Debug)]
pub enum PipelineError {
    /// Front-end syntax error.
    Parse(ParseError),
    /// BAM compilation error.
    Compile(symbol_bam::CompileError),
    /// ICI translation error.
    Translate(TranslateError),
    /// The program has no `main/0`.
    NoMain,
    /// The emulator hit a machine error.
    Exec(symbol_intcode::emu::ExecError),
    /// The VLIW simulator hit a machine-model violation or fault.
    Sim(symbol_vliw::SimError),
    /// The compactor produced a schedule that failed static
    /// verification. On the serving tier this must surface as an error
    /// value, never a panic.
    Schedule(symbol_compactor::Violation),
    /// A rebuilt program failed [`IciProgram::new`] validation.
    Program(symbol_intcode::ProgramError),
    /// A compiled artifact was truncated, corrupt, or inconsistent.
    Artifact(symbol_intcode::WireError),
    /// The query failed or produced a wrong (self-checked) answer.
    WrongAnswer,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse: {e}"),
            PipelineError::Compile(e) => write!(f, "compile: {e}"),
            PipelineError::Translate(e) => write!(f, "translate: {e}"),
            PipelineError::NoMain => write!(f, "program defines no main/0"),
            PipelineError::Exec(e) => write!(f, "execution: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation: {e}"),
            PipelineError::Schedule(v) => write!(f, "schedule verification: {v}"),
            PipelineError::Program(e) => write!(f, "program validation: {e}"),
            PipelineError::Artifact(e) => write!(f, "artifact: {e}"),
            PipelineError::WrongAnswer => {
                write!(f, "query failed its self-check (wrong answer)")
            }
        }
    }
}

impl Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<symbol_bam::CompileError> for PipelineError {
    fn from(e: symbol_bam::CompileError) -> Self {
        PipelineError::Compile(e)
    }
}

impl From<TranslateError> for PipelineError {
    fn from(e: TranslateError) -> Self {
        PipelineError::Translate(e)
    }
}

impl From<symbol_intcode::emu::ExecError> for PipelineError {
    fn from(e: symbol_intcode::emu::ExecError) -> Self {
        PipelineError::Exec(e)
    }
}

impl From<symbol_vliw::SimError> for PipelineError {
    fn from(e: symbol_vliw::SimError) -> Self {
        PipelineError::Sim(e)
    }
}

impl From<symbol_compactor::Violation> for PipelineError {
    fn from(v: symbol_compactor::Violation) -> Self {
        PipelineError::Schedule(v)
    }
}

impl From<symbol_intcode::ProgramError> for PipelineError {
    fn from(e: symbol_intcode::ProgramError) -> Self {
        PipelineError::Program(e)
    }
}

impl From<symbol_intcode::WireError> for PipelineError {
    fn from(e: symbol_intcode::WireError) -> Self {
        PipelineError::Artifact(e)
    }
}

/// The front-end representations of a compilation: only produced when
/// the pipeline actually ran from source. A [`Compiled`] restored from
/// a serialized artifact has none — the whole point of the artifact
/// path is skipping the front end.
#[derive(Debug)]
pub struct FrontEnd {
    /// The normalized source program.
    pub program: Program,
    /// BAM code.
    pub bam: BamProgram,
}

/// The profile-guided second execution tier: the fused program, what
/// the fusion pass did, and the hash of the profile it specialized
/// against.
#[derive(Debug)]
pub struct FusedTier {
    /// The re-decoded program with fused superinstructions installed.
    pub program: DecodedProgram,
    /// Static and dynamic accounting of the fusion pass.
    pub report: FusionReport,
    /// `fuse::profile_hash` of the profile this tier was built from: a
    /// record of where the tier came from, stored with it. It is not a
    /// cache token; a restored tier is checked against its base program
    /// instead ([`Compiled::attach_fused_tier`]).
    pub profile_hash: u64,
}

/// A fully compiled benchmark: the executable representations plus —
/// when compiled from source — the front-end forms kept for
/// inspection.
#[derive(Debug)]
pub struct Compiled {
    /// Front-end representations (`None` on the artifact cold path,
    /// see [`Compiled::from_artifact`]).
    pub front: Option<FrontEnd>,
    /// Executable IntCode.
    pub ici: IciProgram,
    /// The IntCode pre-decoded into the flat micro-op form — the
    /// default execution engine of [`Compiled::run_sequential`].
    pub decoded: DecodedProgram,
    /// Memory layout the code was generated for.
    pub layout: Layout,
    /// The fused second tier, once a profiling run has built (or the
    /// artifact cache has attached) it. `None` until then — cold runs
    /// execute `decoded`, warm runs execute this.
    pub fused: Option<FusedTier>,
}

impl Compiled {
    /// Compiles Prolog source down to IntCode with the default layout.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for syntax errors, unsupported
    /// goals, undefined predicates or a missing `main/0`.
    pub fn from_source(src: &str) -> Result<Self, PipelineError> {
        Self::from_source_obs(src, Layout::default(), &Registry::disabled(), "")
    }

    /// Compiles for an explicit memory layout, with every compilation
    /// stage timed on `obs` by an RAII span (`parse`, `compile`,
    /// `translate`, `decode`) labelled with `bench`. With
    /// [`Registry::disabled`] nothing is recorded.
    ///
    /// # Errors
    ///
    /// See [`Compiled::from_source`].
    pub fn from_source_obs(
        src: &str,
        layout: Layout,
        obs: &Registry,
        bench: &str,
    ) -> Result<Self, PipelineError> {
        let labels: &[(&str, &str)] = &[("bench", bench)];
        let program = {
            let _span = obs.span("parse", labels);
            symbol_prolog::parse_program(src)?
        };
        let bam = {
            let _span = obs.span("compile", labels);
            symbol_bam::compile(&program)?
        };
        let main_atom = program
            .symbols()
            .lookup("main")
            .ok_or(PipelineError::NoMain)?;
        let main = PredId::new(main_atom, 0);
        if program.predicate(main).is_none() {
            return Err(PipelineError::NoMain);
        }
        let ici = {
            let _span = obs.span("translate", labels);
            translate::translate(&bam, main, &layout)?
        };
        let decoded = {
            let _span = obs.span("decode", labels);
            DecodedProgram::new(&ici)
        };
        Ok(Compiled {
            front: Some(FrontEnd { program, bam }),
            ici,
            decoded,
            layout,
            fused: None,
        })
    }

    /// Assembles a [`Compiled`] from deserialized artifact parts,
    /// skipping the whole front end (parse → compile → translate →
    /// decode). This is the cold-start path of the `symbol-serve`
    /// artifact cache: the caller deserializes the IntCode and its
    /// pre-decoded form from disk, and this constructor only
    /// cross-checks that the two are consistent.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Artifact`] when the decoded program is not
    /// parallel to the IntCode (a corrupt or mismatched artifact).
    pub fn from_artifact(
        ici: IciProgram,
        decoded: DecodedProgram,
        layout: Layout,
    ) -> Result<Self, PipelineError> {
        if decoded.len() != ici.len() {
            return Err(PipelineError::Artifact(
                symbol_intcode::WireError::Corrupt {
                    what: "decoded/intcode consistency",
                },
            ));
        }
        Ok(Compiled {
            front: None,
            ici,
            decoded,
            layout,
            fused: None,
        })
    }

    /// Runs the sequential emulation on the pre-decoded micro-op
    /// engine (the default path), requiring the query's self-check to
    /// succeed.
    ///
    /// # Errors
    ///
    /// [`PipelineError::WrongAnswer`] if the query fails;
    /// [`PipelineError::Exec`] on machine errors or step-limit
    /// exhaustion.
    pub fn run_sequential(&self) -> Result<RunResult, PipelineError> {
        let result =
            DecodedEmulator::new(&self.decoded, &self.layout).run(&ExecConfig::default())?;
        if result.outcome != Outcome::Success {
            return Err(PipelineError::WrongAnswer);
        }
        Ok(result)
    }

    /// [`Compiled::run_sequential`] wrapped in an `emulate` span and
    /// step/op accounting on `obs`. The run itself is the identical
    /// unprofiled engine — observability changes nothing about the
    /// result.
    ///
    /// # Errors
    ///
    /// See [`Compiled::run_sequential`].
    pub fn run_sequential_obs(
        &self,
        obs: &Registry,
        bench: &str,
    ) -> Result<RunResult, PipelineError> {
        let labels: &[(&str, &str)] = &[("bench", bench)];
        let result = {
            let _span = obs.span("emulate", labels);
            self.run_sequential()?
        };
        obs.counter("emulator.steps", labels).add(result.steps);
        Ok(result)
    }

    /// The cold profiling run of the tiering loop: executes the
    /// decoded program under the profiled monomorphization and returns
    /// the execution statistics, branch-predictor profile, and step
    /// count. Deterministic — two profiling runs of the same program
    /// produce identical profiles (and so an identical
    /// `fuse::profile_hash`).
    ///
    /// # Errors
    ///
    /// [`PipelineError::WrongAnswer`] if the query fails;
    /// [`PipelineError::Exec`] on machine errors.
    pub fn profile(&self) -> Result<(ExecStats, ExecProfile, u64), PipelineError> {
        let (res, stats, steps, profile) = DecodedEmulator::new(&self.decoded, &self.layout)
            .run_with_profile(&ExecConfig::default());
        if res? != Outcome::Success {
            return Err(PipelineError::WrongAnswer);
        }
        Ok((stats, profile, steps))
    }

    /// Builds and installs the fused tier from an already-collected
    /// profile (the serve layer's cold path: it profiles under its own
    /// span, then fuses under another).
    pub fn attach_fused_from_profile(
        &mut self,
        stats: &ExecStats,
        profile: &ExecProfile,
    ) -> &FusedTier {
        let (program, report) = fuse::fuse(&self.decoded, stats, &FuseConfig::default());
        let profile_hash = fuse::profile_hash(stats, profile);
        self.fused.insert(FusedTier {
            program,
            report,
            profile_hash,
        })
    }

    /// The full cold half of the tiering loop: one profiling run, then
    /// fusion. After this, [`Compiled::serving_program`] — and so
    /// [`Compiled::run_batch`] and the query server — execute the
    /// specialized program.
    ///
    /// # Errors
    ///
    /// See [`Compiled::profile`].
    pub fn build_fused_tier(&mut self) -> Result<&FusedTier, PipelineError> {
        let (stats, profile, _steps) = self.profile()?;
        Ok(self.attach_fused_from_profile(&stats, &profile))
    }

    /// Installs a fused tier restored from a serialized artifact,
    /// checking that its program is a legal fusion of this image's
    /// decoded program ([`fuse::is_fusion_of`]), so that it behaves
    /// exactly like the program it replaces.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Artifact`] when it is not — a fused artifact
    /// for some other program, or one that breaks the fusion rules.
    pub fn attach_fused_tier(&mut self, tier: FusedTier) -> Result<(), PipelineError> {
        if !fuse::is_fusion_of(&tier.program, &self.decoded) {
            return Err(PipelineError::Artifact(
                symbol_intcode::WireError::Corrupt {
                    what: "fused/intcode consistency",
                },
            ));
        }
        self.fused = Some(tier);
        Ok(())
    }

    /// The program the serving tier executes: the fused second tier
    /// when one is installed (warm), the plain decoded program
    /// otherwise (cold). Both are bit-identical in behavior — same
    /// outcome, step count and `ExecStats` — so an image can be
    /// upgraded while it serves.
    pub fn serving_program(&self) -> &DecodedProgram {
        self.fused
            .as_ref()
            .map_or(&self.decoded, |tier| &tier.program)
    }

    /// Runs a batch of independent queries back-to-back against the
    /// serving program (fused when installed), reusing pooled engine
    /// state — no per-query register/heap allocation once the pool is
    /// warm. Answers come back in query index order and each is
    /// bit-identical (outcome, step count, errors) to a standalone run
    /// of the same query on a fresh engine.
    pub fn run_batch(&self, queries: &[ExecConfig], pool: &mut ArenaPool) -> Vec<BatchOutcome> {
        batch::run_batch(self.serving_program(), &self.layout, queries, pool)
    }

    /// One serving-tier request: `n` default-config queries run
    /// back-to-back on pooled state, each answer self-checked like
    /// [`Compiled::run_sequential`]. Returns per-query step counts in
    /// query index order. A single query is the `n = 1` batch, so every
    /// query the server answers takes this one path.
    ///
    /// The request runs under a `serve.query{req, n, tier}` trace
    /// span. It is a [`Registry::event_span`] — trace event only, no
    /// histogram — because request ids are unbounded and would
    /// otherwise mint one histogram cell per request.
    ///
    /// # Errors
    ///
    /// Per query: [`PipelineError::WrongAnswer`] on a failed
    /// self-check, [`PipelineError::Exec`] on machine errors.
    pub fn run_query_batch_obs(
        &self,
        obs: &Registry,
        req_id: u64,
        n: usize,
        pool: &mut ArenaPool,
    ) -> Vec<Result<u64, PipelineError>> {
        let req = req_id.to_string();
        let batch_n = n.to_string();
        let tier = if self.fused.is_some() {
            "fused"
        } else {
            "decoded"
        };
        let _span = obs.event_span(
            "serve.query",
            &[("req", &req), ("n", &batch_n), ("tier", tier)],
        );
        let queries = vec![ExecConfig::default(); n];
        self.run_batch(&queries, pool)
            .into_iter()
            .map(|out| match out.result {
                Ok(Outcome::Success) => Ok(out.steps),
                Ok(_) => Err(PipelineError::WrongAnswer),
                Err(e) => Err(PipelineError::Exec(e)),
            })
            .collect()
    }
}

/// A compiled benchmark together with its sequential profiling run.
///
/// The sequential emulation is the single most expensive shared input
/// of the evaluation system: every compaction mode and machine
/// configuration consumes the same [`RunResult`] (its `ExecStats`
/// drive trace picking and branch statistics). Building it once here
/// and sharing it immutably lets all simulation workers run
/// concurrently without recomputing the profile per configuration.
#[derive(Debug)]
pub struct CompiledCache<'a> {
    /// The compiled artifacts, borrowed immutably for the cache's
    /// lifetime so workers on other threads can share them.
    pub compiled: &'a Compiled,
    /// The sequential profiling run (self-check already enforced).
    pub run: RunResult,
}

impl<'a> CompiledCache<'a> {
    /// Performs the sequential profiling run once for `compiled`.
    ///
    /// # Errors
    ///
    /// See [`Compiled::run_sequential`].
    pub fn new(compiled: &'a Compiled) -> Result<Self, PipelineError> {
        let run = compiled.run_sequential()?;
        Ok(CompiledCache { compiled, run })
    }
}

/// Runs compacted VLIW code on the production simulator: lowers
/// `program` for `machine` into [`DecodedVliw`] issue records, runs
/// [`DecodedVliwSim`] over `layout` and re-checks the answer. The
/// decoded simulator is bit-identical to the legacy `VliwSim`
/// (asserted by the workspace agreement suite).
///
/// # Errors
///
/// [`PipelineError::Sim`] on a machine-model violation, fault or
/// cycle-limit exhaustion; [`PipelineError::WrongAnswer`] unless the
/// query succeeds, as the sequential run the code was compacted from
/// did.
pub fn simulate(
    program: &VliwProgram,
    machine: MachineConfig,
    layout: &Layout,
) -> Result<SimResult, PipelineError> {
    let decoded = DecodedVliw::new(program, machine);
    let result = DecodedVliwSim::new(&decoded, layout).run(&SimConfig::default())?;
    if result.outcome != SimOutcome::Success {
        return Err(PipelineError::WrongAnswer);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbol_compactor::{try_compact, CompactMode, TracePolicy};
    use symbol_intcode::emu::Emulator;

    /// One run on the legacy op-at-a-time interpreter, the reference
    /// the decoded engines are checked against.
    fn legacy_run(c: &Compiled) -> RunResult {
        Emulator::new(&c.ici, &c.layout)
            .run(&ExecConfig::default())
            .expect("legacy run")
    }

    /// One run of `program` on a fresh decoded engine.
    fn decoded_run(program: &DecodedProgram, layout: &Layout) -> RunResult {
        DecodedEmulator::new(program, layout)
            .run(&ExecConfig::default())
            .expect("decoded run")
    }

    #[test]
    fn cache_profile_matches_a_direct_run() -> Result<(), PipelineError> {
        let c = Compiled::from_source("main :- X is 5 * 5, X = 25.")?;
        let cache = CompiledCache::new(&c)?;
        let direct = c.run_sequential()?;
        assert_eq!(cache.run.steps, direct.steps);
        assert_eq!(cache.run.stats.expect, direct.stats.expect);
        assert_eq!(cache.run.stats.taken, direct.stats.taken);
        Ok(())
    }

    #[test]
    fn artifact_round_trip_reconstructs_a_runnable_compiled() -> Result<(), PipelineError> {
        let c = Compiled::from_source("main :- X is 5 * 5, X = 25.")?;
        let ici = IciProgram::from_wire_bytes(&c.ici.to_wire_bytes())?;
        let decoded = DecodedProgram::from_wire_bytes(&c.decoded.to_wire_bytes())?;
        let restored = Compiled::from_artifact(ici, decoded, c.layout)?;
        assert!(restored.front.is_none(), "artifact path has no front end");
        let a = c.run_sequential()?;
        let b = restored.run_sequential()?;
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.stats.expect, b.stats.expect);
        assert_eq!(a.stats.taken, b.stats.taken);
        Ok(())
    }

    #[test]
    fn mismatched_artifact_parts_are_rejected() {
        let c = Compiled::from_source("main :- X is 5 * 5, X = 25.").expect("compiles");
        let other = Compiled::from_source("main :- 2 = 2.").expect("compiles");
        let err = Compiled::from_artifact(other.ici, c.decoded.clone(), c.layout).unwrap_err();
        assert!(matches!(err, PipelineError::Artifact(_)), "{err}");
    }

    #[test]
    fn simulate_rejects_code_whose_query_fails() {
        let c = Compiled::from_source("main :- 1 = 2.").expect("compiles");
        let run = legacy_run(&c);
        assert_eq!(run.outcome, Outcome::Failure);
        let machine = MachineConfig::units(3);
        let compacted = try_compact(
            &c.ici,
            &run.stats,
            &machine,
            CompactMode::TraceSchedule,
            &TracePolicy::default(),
        )
        .expect("schedule verifies");
        let err = simulate(&compacted.program, machine, &c.layout).unwrap_err();
        assert!(matches!(err, PipelineError::WrongAnswer), "{err}");
    }

    #[test]
    fn decoded_default_engine_matches_legacy() {
        let c = Compiled::from_source("main :- X is 5 * 5, X = 25.").unwrap();
        let d = c.run_sequential().unwrap();
        let l = legacy_run(&c);
        assert_eq!(d.outcome, l.outcome);
        assert_eq!(d.steps, l.steps);
        assert_eq!(d.stats.expect, l.stats.expect);
        assert_eq!(d.stats.taken, l.stats.taken);
    }

    #[test]
    fn fused_tier_is_bit_identical_to_decoded_and_legacy() {
        let src = "main :- count(50).
                   count(0).
                   count(N) :- N > 0, M is N - 1, count(M).";
        let mut c = Compiled::from_source(src).unwrap();
        let d = c.run_sequential().unwrap();
        let l = legacy_run(&c);
        c.build_fused_tier().unwrap();
        let tier = c.fused.as_ref().unwrap();
        assert!(tier.report.pairs > 0, "fusion found hot pairs");
        assert!(tier.report.coverage() > 0.0);
        let f = decoded_run(&tier.program, &c.layout);
        assert_eq!(f.outcome, d.outcome);
        assert_eq!(f.steps, d.steps);
        assert_eq!(f.steps, l.steps);
        assert_eq!(f.stats.expect, d.stats.expect);
        assert_eq!(f.stats.taken, d.stats.taken);
    }

    #[test]
    fn fast_path_picks_the_installed_tier() {
        let mut c = Compiled::from_source("main :- X is 2 + 3, X = 5.").unwrap();
        assert!(std::ptr::eq(c.serving_program(), &c.decoded), "cold");
        let cold = decoded_run(c.serving_program(), &c.layout);
        c.build_fused_tier().unwrap();
        let tier = &c.fused.as_ref().unwrap().program;
        assert!(std::ptr::eq(c.serving_program(), tier), "warm");
        let warm = decoded_run(c.serving_program(), &c.layout);
        assert_eq!(cold.steps, warm.steps);
        assert_eq!(cold.stats.expect, warm.stats.expect);
    }

    #[test]
    fn profile_and_profile_hash_are_deterministic() {
        let c = Compiled::from_source("main :- X is 6 * 7, X = 42.").unwrap();
        let (s1, p1, n1) = c.profile().unwrap();
        let (s2, p2, n2) = c.profile().unwrap();
        assert_eq!(n1, n2);
        assert_eq!(s1.expect, s2.expect);
        assert_eq!(p1.mispredict, p2.mispredict);
        assert_eq!(fuse::profile_hash(&s1, &p1), fuse::profile_hash(&s2, &p2));
    }

    #[test]
    fn mismatched_fused_tier_is_rejected() {
        let mut other = Compiled::from_source("main :- 2 = 2.").unwrap();
        other.build_fused_tier().unwrap();
        let tier = other.fused.take().unwrap();
        let mut c = Compiled::from_source("main :- X is 5 * 5, X = 25.").unwrap();
        let err = c.attach_fused_tier(tier).unwrap_err();
        assert!(matches!(err, PipelineError::Artifact(_)), "{err}");
        assert!(c.fused.is_none());
    }

    #[test]
    fn batched_queries_match_sequential_on_both_tiers() {
        let src = "main :- count(40). count(0). count(N) :- N > 0, M is N - 1, count(M).";
        let mut c = Compiled::from_source(src).unwrap();
        let seq = c.run_sequential().unwrap();
        let queries = vec![ExecConfig::default(); 5];
        let mut pool = ArenaPool::new();
        for tiered in [false, true] {
            if tiered {
                c.build_fused_tier().unwrap();
            }
            let out = c.run_batch(&queries, &mut pool);
            assert_eq!(out.len(), 5);
            for o in &out {
                assert_eq!(o.result, Ok(Outcome::Success));
                assert_eq!(o.steps, seq.steps, "tiered={tiered}");
            }
        }
        let obs = Registry::new();
        let answers = c.run_query_batch_obs(&obs, 7, 3, &mut pool);
        assert_eq!(answers.len(), 3);
        for a in answers {
            assert_eq!(a.unwrap(), seq.steps);
        }
        // A step-limited query mid-batch errs alone, in place.
        let mixed = [
            ExecConfig::default(),
            ExecConfig { max_steps: 3 },
            ExecConfig::default(),
        ];
        let out = c.run_batch(&mixed, &mut pool);
        assert_eq!(out[0].result, Ok(Outcome::Success));
        assert!(out[1].result.is_err());
        assert_eq!(out[1].steps, 3);
        assert_eq!(out[2].result, Ok(Outcome::Success));
        assert_eq!(out[2].steps, seq.steps);
    }

    #[test]
    fn compiles_and_runs_trivial_program() {
        let c = Compiled::from_source("main :- X is 1 + 1, X = 2.").unwrap();
        let r = c.run_sequential().unwrap();
        assert!(r.steps > 0);
    }

    #[test]
    fn missing_main_is_reported() {
        let e = Compiled::from_source("foo.").unwrap_err();
        assert!(matches!(e, PipelineError::NoMain));
    }

    #[test]
    fn wrong_answer_is_reported() {
        let c = Compiled::from_source("main :- 1 = 2.").unwrap();
        assert!(matches!(
            c.run_sequential().unwrap_err(),
            PipelineError::WrongAnswer
        ));
    }
}
