//! `symbolc` as a user runs it: a program the compiler cannot handle
//! must end in an error message and a non-zero exit, never a panic.

use std::process::Command;

#[test]
fn run_on_a_variable_goal_fails_cleanly() {
    let path = std::env::temp_dir().join(format!("symbolc-var-goal-{}.pl", std::process::id()));
    std::fs::write(&path, "main :- X.\n").expect("write the program");
    let out = Command::new(env!("CARGO_BIN_EXE_symbolc"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("symbolc starts");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "symbolc run succeeded: {stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("variable goal X"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
