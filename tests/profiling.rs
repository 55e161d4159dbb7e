//! Algorithm 1's kernel profiling pass, pinned against the oracle: every
//! candidate `profile_layer_kernels` keeps must carry exactly the op total
//! and surrogate error the oracle's independent walk of that one kernel
//! under that mode produces.

use snapea_suite::core::optimizer::profiling::profile_layer_kernels;
use snapea_suite::core::params::KernelMode;
use snapea_suite::nn::ops::Conv2d;
use snapea_suite::oracle::reference::profile_candidate;
use snapea_suite::tensor::im2col::ConvGeom;
use snapea_suite::tensor::{init, Shape4};

#[test]
fn every_profiled_candidate_matches_the_oracle_walk() {
    let mut checked = 0usize;
    let mut speculative = 0usize;
    for geom in [
        ConvGeom::square(3, 1, 1),
        ConvGeom::square(3, 1, 0),
        ConvGeom::square(3, 2, 1),
        ConvGeom::square(5, 1, 2),
        ConvGeom::square(1, 1, 0),
    ] {
        let mut rng = init::rng(77);
        let conv = Conv2d::new(3, 4, geom, &mut rng);
        let input = init::uniform4(Shape4::new(2, 3, 8, 8), 1.0, &mut rng).map(f32::abs);
        let tables = profile_layer_kernels(&conv, &input, &[1, 2, 4, 8], &[0.25, 0.5, 0.9], 1.0);
        assert_eq!(tables.len(), conv.c_out());
        for (k, table) in tables.iter().enumerate() {
            for c in table.candidates() {
                let want =
                    profile_candidate(conv.weight().item(k), conv.bias()[k], geom, &input, c.mode);
                let case = format!("{geom:?} kernel {k} {:?}", c.mode);
                assert_eq!(c.ops, want.ops, "{case}: ops");
                assert_eq!(
                    c.surrogate_err.to_bits(),
                    want.surrogate_err.to_bits(),
                    "{case}: surrogate error {} vs oracle {}",
                    c.surrogate_err,
                    want.surrogate_err
                );
                checked += 1;
                speculative += usize::from(matches!(c.mode, KernelMode::Speculate(_)));
            }
        }
    }
    // A budget of 1.0 keeps every candidate, so most of them speculate.
    assert!(
        speculative > checked / 2,
        "{speculative} of {checked} candidates speculate"
    );
}
