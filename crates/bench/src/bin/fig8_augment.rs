//! Figure 8: the 4x4 grid of contrastive data-augmentation pairs, measured
//! by downstream ETA MAPE on BJ-mini (lower = better, as in the paper's
//! heat map).
//!
//! Run: `cargo run -p start-bench --release --bin fig8_augment`

use start_bench::{bj_mini, start_config, ModelKind, Runner, Scale, Table};
use start_eval::metrics::mape;
use start_traj::{Augmentation, Trajectory};

fn main() {
    let scale = Scale::from_env();
    println!("START reproduction — Figure 8 (scale: {})\n", scale.name);
    let ds = bj_mini(&scale);
    let test: Vec<Trajectory> = ds.test().iter().take(scale.eval_subset).cloned().collect();
    let truth: Vec<f32> = test.iter().map(Trajectory::travel_time_secs).collect();

    let augs = Augmentation::ALL;
    let short = |a: Augmentation| match a {
        Augmentation::Trim => "Trim",
        Augmentation::TemporalShift => "Shift",
        Augmentation::Mask => "Mask",
        Augmentation::Dropout => "Drop",
    };
    let mut header = vec!["pair"];
    header.extend(augs.iter().map(|&a| short(a)));
    let mut table = Table::new("Fig 8: ETA MAPE for augmentation pairs (BJ-mini)", &header);

    // The grid is symmetric: compute the upper triangle and mirror it.
    let mut grid = [[f32::NAN; 4]; 4];
    for i in 0..4 {
        for j in i..4 {
            let mut cfg = start_config(&scale);
            cfg.augmentations = (augs[i], augs[j]);
            let kind = ModelKind::Start(Box::new(cfg));
            let mut runner = Runner::build(&kind, &ds, &scale, None);
            runner.pretrain(&ds, &scale);
            let preds = runner.eta(ds.train(), &test, &scale);
            let m = mape(&truth, &preds);
            grid[i][j] = m;
            grid[j][i] = m;
            eprintln!("  [{} + {}] MAPE {m:.2}", short(augs[i]), short(augs[j]));
        }
    }
    for i in 0..4 {
        let mut row = vec![short(augs[i]).to_string()];
        row.extend(grid[i].iter().map(|m| format!("{m:.2}")));
        table.row(row);
    }
    table.print();
    println!("Shape check vs the paper: Temporal Shifting and Road Segments Mask pairs should be\namong the best cells (temporal augmentation matters); Dropout is a solid cheap option.");
}
