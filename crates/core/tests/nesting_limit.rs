//! Deeply nested terms end in a syntax error, never in a stack
//! overflow: the parser refuses nesting past
//! [`symbol_prolog::parser::MAX_NESTING`], and a term at the limit still
//! compiles and runs on a 2 MiB thread (the default for spawned threads).

use std::process::Command;

use symbol_core::pipeline::{Compiled, PipelineError};
use symbol_prolog::parser::MAX_NESTING;

/// `main :- X = <term nested depth levels deep>, X = <its outer shape>.`
fn nested(depth: usize, open: &str, close: &str, shape: &str) -> String {
    format!(
        "main :- X = {}a{}, X = {shape}.\n",
        open.repeat(depth),
        close.repeat(depth)
    )
}

/// The three bracket kinds, `depth` levels deep.
fn programs(depth: usize) -> [String; 3] {
    [
        nested(depth, "f(", ")", "f(_)"),
        nested(depth, "[", "]", "[_]"),
        nested(depth, "(", ")", "_"),
    ]
}

/// Runs `f` on a thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no overflow")
}

#[test]
fn a_term_at_the_limit_compiles_and_runs() {
    on_small_stack(|| {
        for src in programs(MAX_NESTING) {
            let compiled = Compiled::from_source(&src).expect("compiles");
            compiled.run_sequential().expect("runs and succeeds");
        }
    });
}

#[test]
fn deeper_terms_are_syntax_errors() {
    on_small_stack(|| {
        for depth in [MAX_NESTING + 1, 100_000] {
            for src in programs(depth) {
                match Compiled::from_source(&src) {
                    Err(PipelineError::Parse(e)) => {
                        assert!(e.message.contains("nested"), "{e}");
                        assert_eq!(e.line, 1, "{e}");
                    }
                    Err(e) => panic!("depth {depth}: wrong error {e}"),
                    Ok(_) => panic!("depth {depth}: accepted"),
                }
            }
        }
    });
}

#[test]
fn list_length_does_not_count() {
    on_small_stack(|| {
        let items = vec!["a"; 4 * MAX_NESTING].join(", ");
        let src = format!("main :- X = [{items}], X = [_|_].\n");
        let compiled = Compiled::from_source(&src).expect("compiles");
        compiled.run_sequential().expect("runs and succeeds");
    });
}

#[test]
fn symbolc_run_reports_deep_nesting() {
    let path = std::env::temp_dir().join(format!("symbolc-deep-{}.pl", std::process::id()));
    std::fs::write(&path, nested(20_000, "f(", ")", "f(_)")).expect("write the program");
    let out = Command::new(env!("CARGO_BIN_EXE_symbolc"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("symbolc starts");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("nested more than"), "{stderr}");
}
