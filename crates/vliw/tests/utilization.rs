//! Tests of the resource-utilization statistics.

use symbol_intcode::layout::Layout;
use symbol_intcode::{Label, Op, OpClass, Word, R};
use symbol_vliw::{MachineConfig, SimConfig, SlotOp, VliwProgram, VliwSim};

fn word(ops: Vec<Op>) -> Vec<SlotOp> {
    ops.into_iter()
        .enumerate()
        .map(|(u, op)| SlotOp {
            unit: u,
            op,
            speculative: false,
        })
        .collect()
}

/// A program of `words` entered at label 0, bound to the first word.
fn program(words: Vec<Vec<SlotOp>>) -> VliwProgram {
    let word_end = words
        .iter()
        .scan(0, |end, w| {
            *end += w.len() as u32;
            Some(*end)
        })
        .collect();
    VliwProgram::new(words.concat(), word_end, vec![0], Label(0))
}

fn layout() -> Layout {
    Layout {
        heap_size: 64,
        env_size: 64,
        cp_size: 64,
        trail_size: 64,
        pdl_size: 64,
    }
}

#[test]
fn class_ops_and_issue_rate() {
    let instrs = vec![
        word(vec![
            Op::MvI {
                d: R(40),
                w: Word::int(3),
            },
            Op::MvI {
                d: R(41),
                w: Word::int(4),
            },
        ]),
        vec![],
        word(vec![Op::Ld {
            d: R(42),
            base: R(40),
            off: 0,
        }]),
        word(vec![Op::Halt { success: true }]),
    ];
    let p = program(instrs);
    let machine = MachineConfig::wide_units(2);
    let r = VliwSim::new(&p, machine, &layout())
        .run(&SimConfig::default())
        .unwrap();
    assert_eq!(r.class_ops, [1, 0, 2, 1]); // mem, alu, move, control
    assert_eq!(r.cycles, 4);
    assert!((r.issue_rate() - 1.0).abs() < 1e-12); // 4 ops / 4 cycles

    // one memory port over 4 cycles, 1 op used
    let mem_util = r.utilization(&machine, OpClass::Memory);
    assert!((mem_util - 0.25).abs() < 1e-12);
    // 2 move slots per cycle over 4 cycles = 8 slot-cycles, 2 used
    let mv_util = r.utilization(&machine, OpClass::Move);
    assert!((mv_util - 0.25).abs() < 1e-12);
}

#[test]
fn utilization_bounded_by_one() {
    let instrs = vec![
        word(vec![Op::Mv { d: R(40), s: R(41) }]),
        word(vec![Op::Halt { success: true }]),
    ];
    let p = program(instrs);
    let machine = MachineConfig::units(1);
    let r = VliwSim::new(&p, machine, &layout())
        .run(&SimConfig::default())
        .unwrap();
    for class in [
        OpClass::Memory,
        OpClass::Alu,
        OpClass::Move,
        OpClass::Control,
    ] {
        let u = r.utilization(&machine, class);
        assert!((0.0..=1.0).contains(&u), "{class:?} utilization {u}");
    }
}
