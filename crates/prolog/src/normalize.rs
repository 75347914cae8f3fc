//! Clause normalization.
//!
//! Rewrites control constructs into plain clauses so the compiler only
//! ever sees conjunctions of simple goals:
//!
//! * `(C -> T ; E)` becomes an auxiliary predicate with a cut:
//!   `'$ite_k'(Vs) :- C, !, T.` / `'$ite_k'(Vs) :- E.`
//! * `(A ; B)` becomes `'$or_k'(Vs) :- A.` / `'$or_k'(Vs) :- B.`
//! * `\+ G` becomes `'$not_k'(Vs) :- G, !, fail.` / `'$not_k'(Vs).`
//!
//! `Vs` is the set of variables occurring in the construct, so bindings
//! flow in and out exactly as in the source program.
//!
//! Known limitation (documented in DESIGN.md): a cut written *inside* a
//! disjunction or if-then-else branch is local to the auxiliary
//! predicate rather than cutting the enclosing clause. The shipped
//! benchmarks do not rely on that corner of the semantics.

use crate::ast::{Clause, Term};
use crate::error::ParseError;
use crate::parser::RawClause;
use crate::symbols::{wk, SymbolTable};
use std::collections::HashMap;

/// Normalizes raw parsed clauses into flat [`Clause`]s, appending any
/// auxiliary predicates generated along the way.
///
/// # Errors
///
/// Returns a [`ParseError`] at the clause's position for a variable
/// used as a goal (a meta-call, which the SYMBOL compiler does not
/// support).
pub fn normalize_clauses(
    raw: Vec<RawClause>,
    symbols: &mut SymbolTable,
) -> Result<Vec<Clause>, ParseError> {
    let mut ctx = Ctx {
        symbols,
        out: Vec::new(),
        counter: 0,
    };
    for rc in raw {
        ctx.normalize_one(rc)?;
    }
    Ok(ctx.out)
}

struct Ctx<'a> {
    symbols: &'a mut SymbolTable,
    out: Vec<Clause>,
    counter: usize,
}

impl Ctx<'_> {
    fn normalize_one(&mut self, rc: RawClause) -> Result<(), ParseError> {
        let RawClause {
            term,
            var_names,
            line,
            col,
        } = rc;
        let at = (line, col);
        let (head, body_term) = match term {
            Term::Struct(f, mut args) if f == wk::NECK && args.len() == 2 => {
                let body = args.pop().expect("binary neck");
                let head = args.pop().expect("binary neck");
                (head, Some(body))
            }
            // Directives (`:- G.`) are ignored: the benchmark driver
            // always calls `main/0` explicitly.
            Term::Struct(f, args) if f == wk::NECK && args.len() == 1 => {
                let _ = args;
                return Ok(());
            }
            other => (other, None),
        };
        let mut goals = Vec::new();
        if let Some(b) = body_term {
            self.flatten(b, &var_names, at, &mut goals)?;
        }
        self.out.push(Clause::new(head, goals, var_names));
        Ok(())
    }

    /// Flattens `goal` into `acc`; `at` is the source clause's
    /// position, which auxiliary clauses inherit.
    fn flatten(
        &mut self,
        goal: Term,
        var_names: &[String],
        at: (usize, usize),
        acc: &mut Vec<Term>,
    ) -> Result<(), ParseError> {
        match goal {
            Term::Struct(f, mut args) if f == wk::COMMA && args.len() == 2 => {
                let b = args.pop().expect("binary comma");
                let a = args.pop().expect("binary comma");
                self.flatten(a, var_names, at, acc)?;
                self.flatten(b, var_names, at, acc)?;
            }
            Term::Atom(a) if a == wk::TRUE => {}
            Term::Struct(f, mut args) if f == wk::SEMICOLON && args.len() == 2 => {
                let else_ = args.pop().expect("binary ;");
                let left = args.pop().expect("binary ;");
                match left {
                    Term::Struct(g, mut ct) if g == wk::ARROW && ct.len() == 2 => {
                        let then = ct.pop().expect("binary ->");
                        let cond = ct.pop().expect("binary ->");
                        self.emit_ite(cond, then, else_, var_names, at, acc)?;
                    }
                    other => self.emit_or(other, else_, var_names, at, acc)?,
                }
            }
            Term::Struct(f, mut args) if f == wk::ARROW && args.len() == 2 => {
                let then = args.pop().expect("binary ->");
                let cond = args.pop().expect("binary ->");
                self.emit_ite(cond, then, Term::Atom(wk::FAIL), var_names, at, acc)?;
            }
            Term::Struct(f, mut args) if f == wk::NAF && args.len() == 1 => {
                let g = args.pop().expect("unary \\+");
                self.emit_not(g, var_names, at, acc)?;
            }
            Term::Var(v) => {
                let name = var_names.get(v).map_or("_", String::as_str);
                return Err(ParseError::new(
                    at.0,
                    at.1,
                    format!(
                        "variable goal {name} is a meta-call, which the SYMBOL compiler \
                         does not support"
                    ),
                ));
            }
            simple => acc.push(simple),
        }
        Ok(())
    }

    fn emit_ite(
        &mut self,
        cond: Term,
        then: Term,
        else_: Term,
        var_names: &[String],
        at: (usize, usize),
        acc: &mut Vec<Term>,
    ) -> Result<(), ParseError> {
        let mut vars = Vec::new();
        cond.collect_vars(&mut vars);
        then.collect_vars(&mut vars);
        else_.collect_vars(&mut vars);
        let aux = self.fresh_aux("$ite");
        let then_body = conj(vec![cond, Term::Atom(wk::CUT), then]);
        self.emit_aux_clause(aux, &vars, then_body, var_names, at)?;
        self.emit_aux_clause(aux, &vars, else_, var_names, at)?;
        acc.push(aux_goal(aux, &vars));
        Ok(())
    }

    fn emit_or(
        &mut self,
        a: Term,
        b: Term,
        var_names: &[String],
        at: (usize, usize),
        acc: &mut Vec<Term>,
    ) -> Result<(), ParseError> {
        let mut vars = Vec::new();
        a.collect_vars(&mut vars);
        b.collect_vars(&mut vars);
        let aux = self.fresh_aux("$or");
        self.emit_aux_clause(aux, &vars, a, var_names, at)?;
        self.emit_aux_clause(aux, &vars, b, var_names, at)?;
        acc.push(aux_goal(aux, &vars));
        Ok(())
    }

    fn emit_not(
        &mut self,
        g: Term,
        var_names: &[String],
        at: (usize, usize),
        acc: &mut Vec<Term>,
    ) -> Result<(), ParseError> {
        let mut vars = Vec::new();
        g.collect_vars(&mut vars);
        let aux = self.fresh_aux("$not");
        let fail_body = conj(vec![g, Term::Atom(wk::CUT), Term::Atom(wk::FAIL)]);
        self.emit_aux_clause(aux, &vars, fail_body, var_names, at)?;
        self.emit_aux_clause(aux, &vars, Term::Atom(wk::TRUE), var_names, at)?;
        acc.push(aux_goal(aux, &vars));
        Ok(())
    }

    fn fresh_aux(&mut self, prefix: &str) -> crate::symbols::Atom {
        let name = format!("{prefix}_{}", self.counter);
        self.counter += 1;
        self.symbols.intern(&name)
    }

    /// Emits `aux(V0..Vn) :- body`, renumbering the construct's outer
    /// variable indices into a fresh clause-local space, and recursively
    /// normalizing the body (it may contain further control constructs).
    fn emit_aux_clause(
        &mut self,
        aux: crate::symbols::Atom,
        vars: &[usize],
        body: Term,
        outer_names: &[String],
        at: (usize, usize),
    ) -> Result<(), ParseError> {
        let mut map: HashMap<usize, usize> = HashMap::new();
        let mut names = Vec::new();
        for (new, &old) in vars.iter().enumerate() {
            map.insert(old, new);
            names.push(outer_names.get(old).cloned().unwrap_or_else(|| "_".into()));
        }
        let head_args: Vec<Term> = (0..vars.len()).map(Term::Var).collect();
        let head = if head_args.is_empty() {
            Term::Atom(aux)
        } else {
            Term::Struct(aux, head_args)
        };
        let body = renumber(body, &map);
        let term = Term::Struct(wk::NECK, vec![head, body]);
        self.normalize_one(RawClause {
            term,
            var_names: names,
            line: at.0,
            col: at.1,
        })
    }
}

fn aux_goal(aux: crate::symbols::Atom, vars: &[usize]) -> Term {
    if vars.is_empty() {
        Term::Atom(aux)
    } else {
        Term::Struct(aux, vars.iter().map(|&v| Term::Var(v)).collect())
    }
}

fn conj(goals: Vec<Term>) -> Term {
    let mut it = goals.into_iter().rev();
    let last = it.next().expect("conj of at least one goal");
    it.fold(last, |acc, g| Term::Struct(wk::COMMA, vec![g, acc]))
}

fn renumber(t: Term, map: &HashMap<usize, usize>) -> Term {
    match t {
        Term::Var(v) => Term::Var(*map.get(&v).expect("construct var set is complete")),
        Term::Int(_) | Term::Atom(_) => t,
        Term::Struct(f, args) => {
            Term::Struct(f, args.into_iter().map(|a| renumber(a, map)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_clauses;

    fn normalize(src: &str) -> (Vec<Clause>, SymbolTable) {
        let mut s = SymbolTable::new();
        let raw = parse_clauses(src, &mut s).unwrap();
        let cs = normalize_clauses(raw, &mut s).unwrap();
        (cs, s)
    }

    #[test]
    fn variable_goals_are_errors_naming_the_variable() {
        for (src, name, line) in [
            ("main :- X.", "X", 1),
            ("p.\nmain :- p, (Goal ; true).", "Goal", 2),
            ("main :- \\+ _.", "_", 1),
        ] {
            let mut s = SymbolTable::new();
            let raw = parse_clauses(src, &mut s).unwrap();
            let e = normalize_clauses(raw, &mut s).expect_err(src);
            assert!(e.message.contains(&format!("variable goal {name} ")), "{e}");
            assert_eq!((e.line, e.col), (line, 1), "{src}");
        }
    }

    #[test]
    fn fact_and_rule() {
        let (cs, _) = normalize("a. b :- a, a.");
        assert_eq!(cs.len(), 2);
        assert!(cs[0].body.is_empty());
        assert_eq!(cs[1].body.len(), 2);
    }

    #[test]
    fn true_is_dropped() {
        let (cs, _) = normalize("a :- true.");
        assert!(cs[0].body.is_empty());
    }

    #[test]
    fn disjunction_becomes_aux_pred() {
        let (cs, s) = normalize("p(X) :- (q(X) ; r(X)).");
        // two aux clauses + the original
        assert_eq!(cs.len(), 3);
        let aux = s.lookup("$or_0").unwrap();
        // aux clauses precede the rewritten original
        assert_eq!(cs[0].pred(), (aux, 1));
        assert_eq!(cs[1].pred(), (aux, 1));
        assert_eq!(cs[2].body.len(), 1);
        assert_eq!(cs[2].body[0].functor(), Some((aux, 1)));
    }

    #[test]
    fn ite_gets_cut() {
        let (cs, s) = normalize("p(X) :- (q(X) -> r(X) ; s(X)).");
        let aux = s.lookup("$ite_0").unwrap();
        let then_clause = cs
            .iter()
            .find(|c| c.pred() == (aux, 1) && c.body.len() == 3);
        let then_clause = then_clause.expect("then-branch clause");
        assert_eq!(then_clause.body[1], Term::Atom(wk::CUT));
    }

    #[test]
    fn negation_as_failure_shape() {
        let (cs, s) = normalize("p(X) :- \\+ q(X), r(X).");
        let aux = s.lookup("$not_0").unwrap();
        let fail_clause = cs
            .iter()
            .find(|c| c.pred() == (aux, 1) && !c.body.is_empty());
        let fail_clause = fail_clause.expect("failing clause");
        assert_eq!(fail_clause.body[1], Term::Atom(wk::CUT));
        assert_eq!(fail_clause.body[2], Term::Atom(wk::FAIL));
        // the success clause is a fact
        assert!(cs.iter().any(|c| c.pred() == (aux, 1) && c.body.is_empty()));
    }

    #[test]
    fn nested_constructs_recurse() {
        let (cs, s) = normalize("p :- (a ; (b ; c)).");
        assert!(s.lookup("$or_0").is_some());
        assert!(s.lookup("$or_1").is_some());
        assert_eq!(cs.len(), 5);
    }

    #[test]
    fn directive_is_ignored() {
        let (cs, _) = normalize(":- something. a.");
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn aux_vars_are_renumbered_densely() {
        let (cs, s) = normalize("p(A, B, C) :- x(C), (q(C, B) ; r(B)).");
        let aux = s.lookup("$or_0").unwrap();
        let c0 = cs.iter().find(|c| c.pred() == (aux, 2)).unwrap();
        // aux head is $or_0(V0, V1) with dense locals
        assert_eq!(c0.head, Term::Struct(aux, vec![Term::Var(0), Term::Var(1)]));
    }

    #[test]
    #[should_panic(expected = "meta-call")]
    fn variable_goal_panics() {
        normalize("p(X) :- X.");
    }
}
