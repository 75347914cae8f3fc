//! Seeded generator for well-formed Prolog programs with a
//! generator-computed expected outcome.
//!
//! Each case is a `main/0` clause whose body is a conjunction of
//! independent *checks*, plus whichever library predicates the checks
//! call. Every check's truth value is known by construction — list
//! results are computed in Rust, arithmetic through the very
//! [`AluOp::eval`] semantics both machines share — so the oracle can
//! demand not just engine agreement but the *right* answer. Checks are
//! ground or locally deterministic on re-entry, which keeps
//! backtracking finite: a program that is expected to fail fails after
//! exhausting finitely many choice points.

use symbol_intcode::{AluOp, Outcome};

use crate::rng::Rng;

/// One generated Prolog case.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PrologCase {
    /// Parseable source text (one clause per line).
    pub source: String,
    /// The outcome the query must produce.
    pub expected: Outcome,
}

/// Library predicates, keyed in emission order. `rev` needs `app`.
const LIBS: [(&str, &str); 6] = [
    (
        "app",
        "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).",
    ),
    (
        "len",
        "len([], 0).\nlen([_|T], N) :- len(T, M), N is M + 1.",
    ),
    ("mem", "mem(X, [X|_]).\nmem(X, [_|T]) :- mem(X, T)."),
    ("cmax", "cmax(X, Y, X) :- X >= Y, !.\ncmax(_, Y, Y)."),
    (
        "rev",
        "rev([], []).\nrev([H|T], R) :- rev(T, S), app(S, [H], R).",
    ),
    (
        "suml",
        "suml([], A, A).\nsuml([H|T], A, R) :- B is A + H, suml(T, B, R).",
    ),
];

fn fmt_list(xs: &[i64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn gen_list(rng: &mut Rng, max_len: u64) -> Vec<i64> {
    let n = rng.below(max_len + 1) as usize;
    (0..n).map(|_| rng.range_i64(0, 9)).collect()
}

/// A random arithmetic expression and its value, evaluated with the
/// shared [`AluOp::eval`] semantics (`//` truncates, `mod` floors).
/// Divisors are patched to be non-zero, so the expression always has a
/// value. Leaf magnitudes and depth keep every intermediate far from
/// `i64` overflow.
fn gen_expr(rng: &mut Rng, depth: u64) -> (String, i64) {
    if depth == 0 || rng.chance(1, 3) {
        let v = rng.range_i64(-9, 9);
        let s = if v < 0 {
            format!("({v})")
        } else {
            v.to_string()
        };
        return (s, v);
    }
    let (ls, lv) = gen_expr(rng, depth - 1);
    let (sym, op) = *rng.pick(&[
        ("+", AluOp::Add),
        ("-", AluOp::Sub),
        ("*", AluOp::Mul),
        ("//", AluOp::Div),
        ("mod", AluOp::Mod),
    ]);
    let (rs, rv) = {
        let (s, v) = gen_expr(rng, depth - 1);
        if matches!(op, AluOp::Div | AluOp::Mod) && v == 0 {
            let v = rng.range_i64(1, 5);
            (v.to_string(), v)
        } else {
            (s, v)
        }
    };
    let v = op.eval(lv, rv).expect("divisor patched non-zero");
    (format!("({ls} {sym} {rs})"), v)
}

/// One check: its goal text, the libraries it needs, and whether it is
/// built to succeed.
struct Check {
    goal: String,
    libs: &'static [&'static str],
}

fn gen_check(rng: &mut Rng, idx: usize, pass: bool) -> Check {
    let x = format!("X{idx}");
    match rng.below(10) {
        // X is E, X =:= v  (or a wrong v).
        0 | 1 => {
            let (e, v) = gen_expr(rng, 3);
            let want = if pass { v } else { v + rng.range_i64(1, 3) };
            let w = if want < 0 {
                format!("({want})")
            } else {
                want.to_string()
            };
            Check {
                goal: format!("{x} is {e}, {x} =:= {w}"),
                libs: &[],
            }
        }
        // app with the true (or padded-wrong) concatenation.
        2 => {
            let l1 = gen_list(rng, 4);
            let l2 = gen_list(rng, 4);
            let mut cat: Vec<i64> = l1.iter().chain(l2.iter()).copied().collect();
            if !pass {
                cat.push(99);
            }
            Check {
                goal: format!(
                    "app({}, {}, {})",
                    fmt_list(&l1),
                    fmt_list(&l2),
                    fmt_list(&cat)
                ),
                libs: &["app"],
            }
        }
        // len measured against the true (or off-by-one) length.
        3 => {
            let l = gen_list(rng, 5);
            let n = l.len() as i64 + if pass { 0 } else { 1 };
            Check {
                goal: format!("len({}, {x}), {x} =:= {n}", fmt_list(&l)),
                libs: &["len"],
            }
        }
        // Ground membership: an element of the list, or 42 (never in a
        // list of 0..9 digits).
        4 => {
            let mut l = gen_list(rng, 5);
            if l.is_empty() {
                l.push(rng.range_i64(0, 9));
            }
            let k = if pass { l[rng.index(l.len())] } else { 42 };
            Check {
                goal: format!("mem({k}, {})", fmt_list(&l)),
                libs: &["mem"],
            }
        }
        // Cut-guarded max.
        5 => {
            let a = rng.range_i64(0, 9);
            let b = rng.range_i64(0, 9);
            let m = a.max(b) + if pass { 0 } else { 1 };
            Check {
                goal: format!("cmax({a}, {b}, {x}), {x} =:= {m}"),
                libs: &["cmax"],
            }
        }
        // Naive reverse (quadratic: rev leans on app).
        6 => {
            let l = gen_list(rng, 5);
            let mut r: Vec<i64> = l.iter().rev().copied().collect();
            if !pass {
                r.push(99);
            }
            Check {
                goal: format!("rev({}, {})", fmt_list(&l), fmt_list(&r)),
                libs: &["app", "rev"],
            }
        }
        // Accumulator sum.
        7 => {
            let l = gen_list(rng, 5);
            let s = l.iter().sum::<i64>() + if pass { 0 } else { 1 };
            Check {
                goal: format!("suml({}, 0, {x}), {x} =:= {s}", fmt_list(&l)),
                libs: &["suml"],
            }
        }
        // Nondeterministic membership then an arithmetic filter: the
        // engine must backtrack through mem/2's choice points.
        8 => {
            let mut l = gen_list(rng, 5);
            if l.is_empty() {
                l.push(rng.range_i64(0, 9));
            }
            let k = if pass { l[rng.index(l.len())] } else { 42 };
            Check {
                goal: format!("mem({x}, {}), {x} =:= {k}", fmt_list(&l)),
                libs: &["mem"],
            }
        }
        // If-then-else (normalizes into a cut-carrying auxiliary).
        _ => {
            let a = rng.range_i64(0, 9);
            let b = rng.range_i64(0, 9);
            let truth = if a < b { 1 } else { 0 };
            let want = if pass { truth } else { 1 - truth };
            Check {
                goal: format!("({a} < {b} -> {x} = 1 ; {x} = 0), {x} =:= {want}"),
                libs: &[],
            }
        }
    }
}

/// Generates one Prolog case from `rng`. Deterministic: the same
/// stream yields the same case.
pub fn generate(rng: &mut Rng) -> PrologCase {
    let n = rng.below(3) as usize + 1;
    // One case in five is built to fail; the failing check goes last so
    // every passing check's bindings are already established when the
    // engine starts backtracking.
    let fail = rng.chance(1, 5);
    let mut goals = Vec::new();
    let mut libs: Vec<&'static str> = Vec::new();
    for i in 0..n {
        let pass = !(fail && i == n - 1);
        let c = gen_check(rng, i, pass);
        goals.push(c.goal);
        for l in c.libs {
            if !libs.contains(l) {
                libs.push(l);
            }
        }
    }
    let mut source = format!("main :- {}.\n", goals.join(", "));
    for (name, text) in LIBS {
        if libs.contains(&name) {
            source.push_str(text);
            source.push('\n');
        }
    }
    PrologCase {
        source,
        expected: if fail {
            Outcome::Failure
        } else {
            Outcome::Success
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbol_core::Compiled;
    use symbol_intcode::emu::ExecConfig;
    use symbol_intcode::{DecodedEmulator, Layout};

    fn small_layout() -> Layout {
        Layout {
            heap_size: 1 << 14,
            env_size: 1 << 13,
            cp_size: 1 << 13,
            trail_size: 1 << 13,
            pdl_size: 1 << 10,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&mut Rng::new(5));
        let b = generate(&mut Rng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn generated_programs_compile_and_meet_their_expectation() {
        for seed in 0..150u64 {
            let case = generate(&mut Rng::new(seed));
            let compiled = Compiled::from_source_obs(
                &case.source,
                small_layout(),
                &symbol_obs::Registry::disabled(),
                "",
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", case.source));
            let outcome = DecodedEmulator::new(&compiled.decoded, &compiled.layout)
                .run(&ExecConfig {
                    max_steps: 2_000_000,
                })
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", case.source))
                .outcome;
            assert_eq!(outcome, case.expected, "seed {seed}\n{}", case.source);
        }
    }

    #[test]
    fn generated_source_survives_the_pretty_round_trip() {
        for seed in 0..50u64 {
            let case = generate(&mut Rng::new(seed));
            let p1 = symbol_prolog::parse_program(&case.source)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let rendered = symbol_prolog::program_to_source(&p1);
            let p2 = symbol_prolog::parse_program(&rendered)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{rendered}"));
            assert_eq!(p1.num_clauses(), p2.num_clauses(), "seed {seed}");
        }
    }
}
