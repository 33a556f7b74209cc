//! Golden guard for the definition-III tile-problem build: every
//! [`TileProblem`] of the T1 preset at W=20000/r=8 and of the T2 preset at
//! W=32000/r=2, pinned as one FNV-1a checksum over the cell, the rect and,
//! per column, `feature_x`, the slots, the line distance, both alpha
//! coefficients (as f64 bits), the adjacent nets and every cap-table
//! entry (as f64 bits).
//!
//! The pinned values were recorded from the build that sharded the global
//! column list into fixed 64-column chunks, before the grid-column slab
//! became the only build unit; any change to them means the build is no
//! longer bit-identical to that one. The checksum is asserted for the
//! serial `build_tile_problems` and for `build_tile_problems_pool` at
//! 1, 2, 4 and 8 lanes.

use pil_fill::core::flow::{FlowConfig, FlowContext};
use pil_fill::core::{
    build_tile_problems, build_tile_problems_pool, SlackColumnDef, TileProblem, WorkerPool,
};
use pil_fill::density::FixedDissection;
use pil_fill::layout::synth::{synthesize, SynthConfig};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn checksum(problems: &[TileProblem]) -> u64 {
    let mut h = Fnv::new();
    h.u64(problems.len() as u64);
    for p in problems {
        h.u64(p.cell.0 as u64);
        h.u64(p.cell.1 as u64);
        for v in [p.rect.left, p.rect.bottom, p.rect.right, p.rect.top] {
            h.i64(v);
        }
        h.u64(p.columns.len() as u64);
        for c in &p.columns {
            h.i64(c.feature_x);
            h.u64(c.slots.len() as u64);
            for y in c.slots.iter() {
                h.i64(y);
            }
            match c.distance {
                Some(d) => {
                    h.u64(1);
                    h.i64(d);
                }
                None => h.u64(0),
            }
            h.f64(c.alpha_weighted);
            h.f64(c.alpha_unweighted);
            let nets: Vec<usize> = c.adjacent_nets.iter().flatten().map(|n| n.0).collect();
            h.u64(nets.len() as u64);
            for n in nets {
                h.u64(n as u64);
            }
            match &c.table {
                Some(t) => {
                    h.u64(u64::from(t.capacity()) + 1);
                    for m in 0..=t.capacity() {
                        h.f64(t.delta_cap(m));
                    }
                }
                None => h.u64(0),
            }
        }
    }
    h.0
}

#[test]
fn tile_golden_t1_and_t2() {
    let cases = [
        (SynthConfig::t1(), 20_000, 8, 0x5831_23c8_ecad_3e3c),
        (SynthConfig::t2(), 32_000, 2, 0x3e3d_52f7_beab_9808),
    ];
    let pools: Vec<WorkerPool> = [1, 2, 4, 8].into_iter().map(WorkerPool::new).collect();
    for (preset, window, r, want) in cases {
        let design = synthesize(&preset);
        let config = FlowConfig::new(window, r).expect("config");
        let ctx = FlowContext::build(&design, &config).expect("context");
        let frame = ctx.frame_design();
        let dis = FixedDissection::new(frame.die, window, r).expect("dissection");
        let tag = format!("{} W={window} r={r}", preset.name);
        let serial = build_tile_problems(
            ctx.lines(),
            ctx.columns(),
            &dis,
            &frame.tech,
            frame.rules,
            SlackColumnDef::Three,
        );
        assert_eq!(checksum(&serial), want, "{tag}: build_tile_problems");
        for pool in &pools {
            let pooled = build_tile_problems_pool(
                ctx.lines(),
                ctx.columns(),
                &dis,
                &frame.tech,
                frame.rules,
                SlackColumnDef::Three,
                pool,
            );
            assert_eq!(
                checksum(&pooled),
                want,
                "{tag}: build_tile_problems_pool @ {} lanes",
                pool.lanes()
            );
        }
    }
}
