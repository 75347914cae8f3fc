//! Replays every checked-in reproducer under `crates/fuzz/corpus/`.
//!
//! Each file declares what the oracle must conclude: `expect: pass`
//! files are regression tests for fixed bugs (and for oracle soundness
//! on tricky-but-correct cases); `expect: fail <tag>` files pin open
//! findings to their exact classification, so a half-fix that shifts
//! the failure mode is caught.

use symbol_core::Compiled;
use symbol_fuzz::gen_intcode::frag_layout;
use symbol_fuzz::oracle::{prolog_layout, run_case, Case, OracleConfig};
use symbol_fuzz::{corpus, Expect};
use symbol_intcode::{fuse, DecodedEmulator, DecodedProgram, ExecConfig, FuseConfig, FusionReport};
use symbol_obs::Registry;

#[test]
fn every_corpus_case_replays_as_declared() {
    let dir = corpus::corpus_dir();
    let cases = corpus::load_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus under {} is malformed: {e}", dir.display()));
    assert!(
        !cases.is_empty(),
        "no corpus files found under {}",
        dir.display()
    );
    let cfg = OracleConfig::default();
    for c in &cases {
        let got = run_case(&c.case, &cfg);
        match (&c.expect, got) {
            (Expect::Pass, Ok(())) => {}
            (Expect::Pass, Err(f)) => panic!(
                "{}: expected to pass, oracle found [{}] {}",
                c.name,
                f.kind.tag(),
                f.detail
            ),
            (Expect::Fail(want), Ok(())) => panic!(
                "{}: expected to fail with [{}], but the oracle accepted it \
                 (bug fixed? flip the file to 'expect: pass')",
                c.name,
                want.tag()
            ),
            (Expect::Fail(want), Err(f)) => {
                assert_eq!(
                    *want,
                    f.kind,
                    "{}: failure kind drifted: expected [{}], got [{}] {}",
                    c.name,
                    want.tag(),
                    f.kind.tag(),
                    f.detail
                );
            }
        }
    }
}

#[test]
fn corpus_files_round_trip_through_the_serializer() {
    let cases = corpus::load_dir(&corpus::corpus_dir()).expect("corpus parses");
    for c in &cases {
        let rendered = corpus::render(&c.case, &c.expect, c.seed, c.failure.as_deref());
        let back = corpus::parse(&c.name, &rendered)
            .unwrap_or_else(|e| panic!("{}: re-parse failed: {e}", c.name));
        assert_eq!(back.case, c.case, "{}", c.name);
        assert_eq!(back.expect, c.expect, "{}", c.name);
    }
}

/// What the default fusion pass does to `case` under the profile of
/// its own run, as the oracle's fused stage sees it.
fn default_fusion(case: &Case, cfg: &OracleConfig) -> FusionReport {
    let (ici, layout) = match case {
        Case::Prolog(p) => {
            let c =
                Compiled::from_source_obs(&p.source, prolog_layout(), &Registry::disabled(), "")
                    .expect("a fused seed compiles");
            (c.ici, c.layout)
        }
        Case::IntCode(frag) => (frag.build().expect("a fused seed builds"), frag_layout()),
    };
    let decoded = DecodedProgram::new(&ici);
    let exec = ExecConfig {
        max_steps: cfg.max_steps,
    };
    let (_, stats, _, _) = DecodedEmulator::new(&decoded, &layout).run_with_profile(&exec);
    fuse(&decoded, &stats, &FuseConfig::default()).1
}

/// A `fused-<shape>` seed exists to run the fused engine on a fused
/// pair of that shape; one that stopped fusing it would replay clean
/// while testing nothing of the tier.
#[test]
fn every_fused_seed_fuses_its_shape() {
    let cases = corpus::load_dir(&corpus::corpus_dir()).expect("corpus parses");
    let cfg = OracleConfig::default();
    let mut seeds = 0;
    for c in &cases {
        let Some(shape) = c.name.strip_prefix("fused-") else {
            continue;
        };
        let report = default_fusion(&c.case, &cfg);
        let pairs = match shape {
            "tag-deref" => report.tag_deref,
            "ld-mv" => report.ld_mv,
            other => panic!("{}: no fused shape named {other:?}", c.name),
        };
        assert!(pairs > 0, "{}: fuses no {shape} pair: {report:?}", c.name);
        seeds += 1;
    }
    assert_eq!(seeds, 2, "one seed per fused shape");
}
