//! Fig. 2 — pipeline scheduling (illustrative figure from the paper's
//! background section): the memory-hungry schedule vs the
//! memory-efficient 1F1B, with pp = 3 and six microbatches, rendered from
//! the simulator's exact task timings.

use pipette_sim::engine::ChainSpec;
use pipette_sim::schedule::PipelineSchedule;
use pipette_sim::trace::render_gantt;

fn main() {
    let pp = 3;
    let n_mb = 6;
    // Unit-ish durations as in the paper's sketch: backward twice the
    // forward, communication visible but small.
    let spec = |schedule| ChainSpec {
        pp,
        n_mb,
        schedule,
        fwd_time: vec![1.0; pp],
        bwd_time: vec![2.0; pp],
        fwd_comm: vec![0.15; pp - 1],
        bwd_comm: vec![0.15; pp - 1],
    };
    println!("Fig. 2 — pipeline scheduling (pp = 3, six microbatches)\n");
    for (label, schedule, note) in [
        (
            "(a) memory-hungry schedule (GPipe)",
            PipelineSchedule::GPipe,
            "every stage holds all six microbatches' activations at once",
        ),
        (
            "(b) memory-efficient schedule (1F1B)",
            PipelineSchedule::OneFOneB,
            "at most pp - stage microbatches in flight; the first stage's\n    forward of microbatch m+3 waits for backward m — the hidden critical path",
        ),
    ] {
        let s = spec(schedule);
        let (result, events) = s.trace();
        println!("{label} — makespan {:.2} units", result.makespan);
        print!(
            "{}",
            render_gantt(&events, pp, 72).expect("traced schedule is non-empty")
        );
        for stage in 0..pp {
            let peak = schedule.inflight_peak(pp, stage, n_mb, &[1]);
            print!("stage {stage}: {peak} in flight  ");
        }
        println!("\n    {note}\n");
    }
}
