//! Weight initialisers.

use crate::tensor::Tensor;
use rand::Rng;
use rand_distr_shim::StandardNormalShim;

/// Xavier/Glorot uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. For rank-1 shapes, fan_in = len and
/// fan_out = 1.
pub fn xavier_uniform<R: Rng>(shape: &[usize], rng: &mut R) -> Tensor {
    let (fan_in, fan_out) = match shape {
        [n] => (*n, 1),
        [r, c] => (*c, *r),
        _ => panic!("unsupported shape {shape:?}"),
    };
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let data = (0..shape.iter().product::<usize>()).map(|_| rng.gen_range(-a..a)).collect();
    Tensor::matrix_or_vector(shape, data)
}

/// Gaussian initialisation with the given standard deviation (Box–Muller).
pub fn normal<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Tensor {
    let data = (0..shape.iter().product::<usize>())
        .map(|_| StandardNormalShim::sample(rng) * std)
        .collect();
    Tensor::matrix_or_vector(shape, data)
}

/// Minimal standard-normal sampler (Box–Muller) so we do not need the
/// `rand_distr` crate.
mod rand_distr_shim {
    use rand::Rng;

    pub(crate) struct StandardNormalShim;

    impl StandardNormalShim {
        pub(crate) fn sample<R: Rng>(rng: &mut R) -> f32 {
            loop {
                let u1: f32 = rng.gen::<f32>();
                if u1 <= f32::MIN_POSITIVE {
                    continue;
                }
                let u2: f32 = rng.gen::<f32>();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds_respected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let t = xavier_uniform(&[64, 32], &mut rng);
        let a = (6.0 / 96.0f32).sqrt();
        assert!(t.data().iter().all(|&x| x > -a && x < a));
        assert_eq!(t.shape(), &[64, 32]);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let t = normal(&[10_000], 2.0, &mut rng);
        let mean = t.sum() / t.len() as f32;
        let var = t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = xavier_uniform(&[8, 8], &mut rand::rngs::StdRng::seed_from_u64(9));
        let b = xavier_uniform(&[8, 8], &mut rand::rngs::StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
