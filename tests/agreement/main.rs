//! The engine-agreement suite: every engine the system runs a program
//! on must give one answer. The decoded and fused emulators agree with
//! the legacy interpreter, the VLIW simulation of every compacted
//! program ends as the sequential run it was compacted from, the
//! parallel and instrumented drivers give what the plain sequential
//! ones give, and the serving tier answers as a standalone run does.
//!
//! One fixture compiles every program the suite uses once and runs
//! each once on each sequential engine. A legacy engine (`Emulator`,
//! `VliwSim`) is built only as the reference side of an assertion
//! against a production engine: everywhere else the engines under test
//! are the production ones.

mod compactor;
mod drivers;
mod engines;
mod serving;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use symbol_core::pipeline::Compiled;
use symbol_intcode::{DecodedEmulator, Emulator, ExecConfig, RunResult};

/// Small programs that each stress one part of the Prolog machinery.
const INLINE: [(&str, &str); 7] = [
    (
        "recursion",
        "main :- sum(25, S), S = 325.
         sum(0, 0).
         sum(N, S) :- N > 0, M is N - 1, sum(M, T), S is T + N.",
    ),
    (
        "backtracking",
        "main :- pick(X), sq(X, 16).
         pick(2). pick(3). pick(4). pick(5).
         sq(X, Y) :- Y is X * X.",
    ),
    (
        "trail",
        "main :- perm([1,2,3,4], P), P = [4,3,2,1].
         perm([], []).
         perm(L, [X|P]) :- sel(X, L, R), perm(R, P).
         sel(X, [X|T], T).
         sel(X, [Y|T], [Y|R]) :- sel(X, T, R).",
    ),
    (
        "cut",
        "main :- best(7, B), B = small, \\+ best(20, small).
         best(X, small) :- X < 10, !.
         best(_, large).",
    ),
    (
        "structures",
        "main :- tree(3, T), count(T, N), N = 7.
         tree(0, leaf).
         tree(D, node(L, R)) :- D > 0, D1 is D - 1, tree(D1, L), tree(D1, R).
         count(leaf, 1).
         count(node(L, R), N) :-
             count(L, NL), count(R, NR), N is NL + NR + 1.",
    ),
    (
        "failure",
        "main :- perm([1,2,3], P), sorted_desc(P), P = [1,2,3].
         perm([], []).
         perm(L, [X|P]) :- sel(X, L, R), perm(R, P).
         sel(X, [X|T], T).
         sel(X, [Y|T], [Y|R]) :- sel(X, T, R).
         sorted_desc([]).
         sorted_desc([_]).
         sorted_desc([A,B|T]) :- A >= B, sorted_desc([B|T]).",
    ),
    (
        "arithmetic",
        "main :- gcd(252, 105, G), G = 21,
                 pow(3, 5, P), P = 243.
         gcd(A, 0, A) :- !.
         gcd(A, B, G) :- B > 0, R is A mod B, gcd(B, R, G).
         pow(_, 0, 1) :- !.
         pow(B, E, R) :- E > 0, E1 is E - 1, pow(B, E1, R1), R is R1 * B.",
    ),
];

/// One program of the suite, compiled once and run once on each
/// sequential engine.
struct Program {
    /// The benchmark's, the extra's or the inline program's name.
    name: &'static str,
    /// Its Prolog source.
    source: &'static str,
    /// The compiled image every test shares.
    compiled: Compiled,
    /// The run on the legacy `Emulator`: the reference side.
    legacy: RunResult,
    /// The run on the production engine: the decoded engine and
    /// configuration `Compiled::run_sequential` runs, without its
    /// self-check, so that a program whose query fails has a profile
    /// too.
    run: RunResult,
}

impl Program {
    /// An owned copy of the compiled image, for a server's `Arc` or a
    /// fused tier.
    fn image(&self) -> Compiled {
        let c = &self.compiled;
        Compiled::from_artifact(c.ici.clone(), c.decoded.clone(), c.layout)
            .expect("an image's own parts agree")
    }

    /// A copy of the compiled image with its fused tier built.
    fn fused_image(&self) -> Compiled {
        let mut c = self.image();
        c.build_fused_tier().expect("fuses");
        c
    }
}

/// Every program of the suite: the 16 benchmarks in
/// `symbol_core::benchmarks::ALL` order, the 5 extras, then the inline
/// programs.
fn fixture() -> &'static [Program] {
    static FIXTURE: OnceLock<Vec<Program>> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let sources: Vec<(&'static str, &'static str)> = symbol_core::benchmarks::ALL
            .iter()
            .chain(symbol_core::extras::EXTRAS)
            .map(|b| (b.name, b.source))
            .chain(INLINE)
            .collect();
        par_map(&sources, |&(name, source)| {
            let compiled = Compiled::from_source(source).unwrap_or_else(|e| panic!("{name}: {e}"));
            let cfg = ExecConfig::default();
            let legacy = Emulator::new(&compiled.ici, &compiled.layout)
                .run(&cfg)
                .unwrap_or_else(|e| panic!("{name}: legacy run: {e}"));
            let run = DecodedEmulator::new(&compiled.decoded, &compiled.layout)
                .run(&cfg)
                .unwrap_or_else(|e| panic!("{name}: decoded run: {e}"));
            Program {
                name,
                source,
                compiled,
                legacy,
                run,
            }
        })
    })
}

/// The 16 benchmarks of the fixture.
fn benches() -> &'static [Program] {
    &fixture()[..symbol_core::benchmarks::ALL.len()]
}

/// The fixture's program called `name`.
fn program(name: &str) -> &'static Program {
    fixture()
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no program `{name}` in the fixture"))
}

/// `f` on every item, spread over as many threads as the machine has
/// cores; the results come back in item order, and a panic in `f`
/// fails the caller with its own message.
fn par_map<I: Sync, T: Send>(items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    let mut done: Vec<(usize, T)> = thread::scope(|s| {
        let workers: Vec<_> = (0..cores.min(items.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}
