//! Bitwise gate on the simulator and the detour generator: FNV-1a hashes of
//! their output, pinned. Every trained weight hash in the workspace starts
//! from these datasets, so a speed-up of route choice or detour search must
//! leave each hash here unchanged.

use rand::rngs::StdRng;
use rand::SeedableRng;
use start_roadnet::{beijing_like, porto_like, City};
use start_traj::{make_detour, DetourConfig, RawTrajectory, SimConfig, Simulator, Trajectory};

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn trajectory(&mut self, t: &Trajectory) {
        self.bytes(&(t.roads.len() as u64).to_le_bytes());
        for r in &t.roads {
            self.bytes(&r.0.to_le_bytes());
        }
        for time in &t.times {
            self.bytes(&time.to_le_bytes());
        }
        self.bytes(&t.driver.to_le_bytes());
        self.bytes(&[t.occupied as u8, t.mode.class_index() as u8]);
        self.bytes(&t.arrival.to_le_bytes());
    }
}

fn hash_all(data: &[Trajectory]) -> u64 {
    let mut h = Fnv::new();
    for t in data {
        h.trajectory(t);
    }
    h.0
}

const TRAJECTORIES: usize = 1_500;

fn generate(city: &City, base: SimConfig, seed: u64) -> Vec<Trajectory> {
    let cfg = SimConfig { num_trajectories: TRAJECTORIES, seed, ..base };
    Simulator::new(&city.net, cfg).generate()
}

#[test]
fn generate_output_is_pinned() {
    // (city, config, seed, hash)
    let pinned: [(&str, &str, u64, u64); 12] = [
        ("beijing", "default", 1, 0xc755_7bfb_f11f_68e1),
        ("beijing", "default", 7, 0x0731_bdec_184b_d24a),
        ("beijing", "default", 4242, 0x6750_bf46_6feb_6e4c),
        ("beijing", "geolife", 1, 0xb2d6_2bf6_9d8e_fd68),
        ("beijing", "geolife", 7, 0x1f78_b6bb_fe0f_a6a8),
        ("beijing", "geolife", 4242, 0xca9c_bb56_5eb8_476a),
        ("porto", "default", 1, 0xa326_c3a3_faa4_e163),
        ("porto", "default", 7, 0xbe02_4e93_28d0_6f87),
        ("porto", "default", 4242, 0xdbd6_6735_021c_427f),
        ("porto", "geolife", 1, 0x6c46_686f_d1bd_354d),
        ("porto", "geolife", 7, 0xf166_9874_ccde_7bd6),
        ("porto", "geolife", 4242, 0xb8da_8ef5_0a6b_74a5),
    ];
    let (bj, porto) = (beijing_like(), porto_like());
    let mut wrong = Vec::new();
    for (city_name, cfg_name, seed, want) in pinned {
        let city = if city_name == "beijing" { &bj } else { &porto };
        let base =
            if cfg_name == "default" { SimConfig::default() } else { SimConfig::geolife_like() };
        let got = hash_all(&generate(city, base, seed));
        if got != want {
            wrong.push(format!("({city_name:?}, {cfg_name:?}, {seed}, {got:#018x})"));
        }
    }
    assert!(wrong.is_empty(), "generate() output changed:\n{}", wrong.join("\n"));
}

#[test]
fn make_detour_output_is_pinned() {
    let city = beijing_like();
    let data = generate(&city, SimConfig::default(), 1);
    let cfg = DetourConfig::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut h = Fnv::new();
    let mut made = 0;
    for traj in data.iter().take(80) {
        match make_detour(&city.net, traj, &cfg, &mut rng) {
            Some(det) => {
                made += 1;
                h.bytes(&[1]);
                h.trajectory(&det);
            }
            None => h.bytes(&[0]),
        }
    }
    assert!(made >= 60, "only {made}/80 detours made");
    assert_eq!(h.0, 0xad29_f270_7b53_ff7e, "make_detour output changed: {:#018x}", h.0);
}

#[test]
fn raw_gps_output_is_pinned() {
    let city = beijing_like();
    let sim = Simulator::new(
        &city.net,
        SimConfig { num_trajectories: 300, seed: 1, ..SimConfig::default() },
    );
    let mut rng = StdRng::seed_from_u64(5);
    let mut h = Fnv::new();
    for (i, traj) in sim.generate().iter().enumerate() {
        let raw: RawTrajectory =
            sim.to_raw_gps(traj, [15, 1, 60][i % 3], [6.0, 0.0, 25.0][i % 3], &mut rng);
        h.bytes(&(raw.points.len() as u64).to_le_bytes());
        for p in &raw.points {
            h.bytes(&p.x.to_le_bytes());
            h.bytes(&p.y.to_le_bytes());
            h.bytes(&p.t.to_le_bytes());
        }
        h.bytes(&raw.driver.to_le_bytes());
    }
    assert_eq!(h.0, 0xa4e1_9e91_6db2_a9b6, "to_raw_gps output changed: {:#018x}", h.0);
}
