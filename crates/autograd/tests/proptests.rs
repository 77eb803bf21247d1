//! Property-based tests for tensors and the tape.

use proptest::prelude::*;
use rmpi_autograd::gradcheck::check_gradients_with;
use rmpi_autograd::{Tape, Tensor, Var};

fn arb_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-2.0f32..2.0, n..=n)
}

/// Rows of the source matrix the segmented ops gather from.
const SEG_ROWS: usize = 6;

/// A random segment layout over `SEG_ROWS` source rows: per-segment member
/// lists (possibly empty, rows repeating within and across segments),
/// flattened to `(members, offsets)`.
fn arb_segments() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    prop::collection::vec(prop::collection::vec(0usize..SEG_ROWS, 0..5), 1..6).prop_map(|segs| {
        let mut offsets = vec![0];
        let mut members = Vec::new();
        for seg in segs {
            members.extend(seg);
            offsets.push(members.len());
        }
        (members, offsets)
    })
}

fn bits(tape: &Tape, v: Var) -> Vec<u32> {
    tape.value(v).data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #[test]
    fn add_commutes(a in arb_vec(6), b in arb_vec(6)) {
        let (ta, tb) = (Tensor::vector(a), Tensor::vector(b));
        prop_assert_eq!(ta.add(&tb), tb.add(&ta));
    }

    #[test]
    fn transpose_is_involutive(data in arb_vec(12)) {
        let m = Tensor::matrix(3, 4, data);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_matches_matmul(mdata in arb_vec(12), xdata in arb_vec(4)) {
        let m = Tensor::matrix(3, 4, mdata);
        let x = Tensor::vector(xdata.clone());
        let via_matvec = m.matvec(&x);
        let xm = Tensor::matrix(4, 1, xdata);
        let via_matmul = m.matmul(&xm);
        for i in 0..3 {
            prop_assert!((via_matvec.data()[i] - via_matmul.data()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn dot_is_symmetric_and_cauchy_schwarz(a in arb_vec(8), b in arb_vec(8)) {
        let (ta, tb) = (Tensor::vector(a), Tensor::vector(b));
        prop_assert!((ta.dot(&tb) - tb.dot(&ta)).abs() < 1e-4);
        prop_assert!(ta.dot(&tb).abs() <= ta.norm() * tb.norm() + 1e-3);
    }

    #[test]
    fn softmax_is_a_distribution(data in arb_vec(7)) {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::vector(data));
        let s = tape.softmax(x);
        let v = tape.value(s);
        prop_assert!((v.sum() - 1.0).abs() < 1e-5);
        prop_assert!(v.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn softmax_is_shift_invariant(data in arb_vec(5), shift in -3.0f32..3.0) {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::vector(data.clone()));
        let s1 = tape.softmax(x);
        let shifted = tape.constant(Tensor::vector(data.iter().map(|v| v + shift).collect()));
        let s2 = tape.softmax(shifted);
        for (a, b) in tape.value(s1).data().iter().zip(tape.value(s2).data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn relu_leakyrelu_agree_on_positives(data in arb_vec(6)) {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::vector(data.clone()));
        let r = tape.relu(x);
        let l = tape.leaky_relu(x, 0.2);
        for ((orig, a), b) in data.iter().zip(tape.value(r).data()).zip(tape.value(l).data()) {
            if *orig >= 0.0 {
                prop_assert_eq!(a, b);
            } else {
                prop_assert_eq!(*a, 0.0);
                prop_assert!((b - 0.2 * orig).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn segment_softmax_equals_softmax_of_each_segment(
        (members, offsets) in arb_segments(),
        logits in prop::collection::vec(-30.0f32..30.0, SEG_ROWS),
    ) {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::vector(logits.clone()));
        let seg = tape.segment_softmax(x, &members, &offsets);
        let got = bits(&tape, seg);
        for w in offsets.windows(2).filter(|w| w[0] < w[1]) {
            let picked = members[w[0]..w[1]].iter().map(|&i| logits[i]).collect();
            let p = tape.constant(Tensor::vector(picked));
            let want = tape.softmax(p);
            prop_assert_eq!(&got[w[0]..w[1]], &bits(&tape, want)[..]);
        }
    }

    #[test]
    fn segment_sum_equals_vecmat_of_each_segment(
        (members, offsets) in arb_segments(),
        rows in arb_vec(SEG_ROWS * 5),
        weights in prop::collection::vec(0.0f32..1.0, 32),
        weighted in 0usize..2,
    ) {
        let mut tape = Tape::new();
        let r = tape.constant(Tensor::matrix(SEG_ROWS, 5, rows));
        let w = (weighted == 1)
            .then(|| tape.constant(Tensor::vector(weights[..members.len()].to_vec())));
        let out = tape.segment_sum(r, w, &members, &offsets);
        for (s, seg) in offsets.windows(2).enumerate() {
            let got: Vec<u32> = tape.value(out).row(s).iter().map(|x| x.to_bits()).collect();
            if seg[0] == seg[1] {
                prop_assert_eq!(got, vec![0u32; 5]);
                continue;
            }
            let picked = tape.gather(r, &members[seg[0]..seg[1]]);
            let wv = if weighted == 1 {
                weights[seg[0]..seg[1]].to_vec()
            } else {
                vec![1.0; seg[1] - seg[0]]
            };
            let wv = tape.constant(Tensor::vector(wv));
            let want = tape.vecmat(wv, picked);
            prop_assert_eq!(got, bits(&tape, want));
        }
    }

    #[test]
    fn matmul_nt_equals_stacked_matvecs(a in arb_vec(4 * 11), b in arb_vec(3 * 11)) {
        let mut tape = Tape::new();
        let av = tape.constant(Tensor::matrix(4, 11, a));
        let bv = tape.constant(Tensor::matrix(3, 11, b));
        let prod = tape.matmul_nt(av, bv);
        let per_row: Vec<Var> = (0..4)
            .map(|j| {
                let x = tape.row(av, j);
                tape.matvec(bv, x)
            })
            .collect();
        let stacked = tape.stack(&per_row);
        prop_assert_eq!(bits(&tape, prod), bits(&tape, stacked));
    }

    /// Gradient check through the batched attention block on random segment
    /// layouts — smooth read-out, no ReLU, so no kink to land on.
    #[test]
    fn gradcheck_random_segmented_attention(
        (members, offsets) in arb_segments(),
        h in prop::collection::vec(-0.9f32..0.9, SEG_ROWS * 3),
        w in prop::collection::vec(-0.9f32..0.9, 9),
    ) {
        check_gradients_with(
            &[("h", Tensor::matrix(SEG_ROWS, 3, h)), ("w", Tensor::matrix(3, 3, w))],
            |tape, store| {
                let h = tape.param(store, store.get("h").unwrap());
                let w = tape.param(store, store.get("w").unwrap());
                let q = tape.row(h, 0);
                let logits = tape.matvec(h, q);
                let msgs = tape.matmul_nt(h, w);
                let att = tape.segment_softmax(logits, &members, &offsets);
                let out = tape.segment_sum(msgs, Some(att), &members, &offsets);
                let t = tape.tanh(out);
                tape.mean(t)
            },
            1e-2,
            5e-2,
        );
    }

    /// Randomised gradient check through a composite expression — smooth ops
    /// only, inputs kept away from kink points.
    #[test]
    fn gradcheck_random_smooth_network(
        w in prop::collection::vec(0.1f32..0.9, 12),
        x in prop::collection::vec(0.1f32..0.9, 4),
    ) {
        check_gradients_with(
            &[("w", Tensor::matrix(3, 4, w)), ("x", Tensor::vector(x))],
            |tape, store| {
                let wv = tape.param(store, store.get("w").unwrap());
                let xv = tape.param(store, store.get("x").unwrap());
                let h = tape.matvec(wv, xv);
                let t = tape.tanh(h);
                let s = tape.softmax(t);
                let sg = tape.sigmoid(s);
                tape.mean(sg)
            },
            1e-2,
            5e-2,
        );
    }
}
