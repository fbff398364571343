//! Output checks. Each returns `Err` with a one-line reason on a
//! mismatch; the benchmark counts the affected operations as failed and
//! exits nonzero. The tests below feed every check a seeded defect and
//! assert that it is rejected, so none of them can pass vacuously.

use std::collections::HashMap;

use parallax_comm::TrafficSnapshot;
use parallax_core::runner::TrafficReport;
use parallax_tensor::Tensor;

fn first_bit_difference(reference: &[f32], got: &[f32]) -> Option<usize> {
    reference
        .iter()
        .zip(got)
        .position(|(a, b)| a.to_bits() != b.to_bits())
}

/// Per-step losses must repeat bit for bit.
pub fn losses_bitwise(what: &str, reference: &[f32], got: &[f32]) -> Result<(), String> {
    if reference.is_empty() {
        return Err(format!("{what}: no reference losses to compare against"));
    }
    if reference.len() != got.len() {
        return Err(format!(
            "{what}: {} losses, reference has {}",
            got.len(),
            reference.len()
        ));
    }
    match first_bit_difference(reference, got) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: loss at step {i} is {:e}, reference {:e}",
            got[i], reference[i]
        )),
    }
}

/// Final weights (by variable index) must repeat bit for bit.
pub fn weights_bitwise(
    what: &str,
    reference: &HashMap<usize, Tensor>,
    got: &HashMap<usize, Tensor>,
) -> Result<(), String> {
    if reference.is_empty() {
        return Err(format!("{what}: no reference weights to compare against"));
    }
    if reference.len() != got.len() {
        return Err(format!(
            "{what}: {} variables, reference has {}",
            got.len(),
            reference.len()
        ));
    }
    let mut vars: Vec<&usize> = reference.keys().collect();
    vars.sort_unstable();
    for var in vars {
        let r = &reference[var];
        let Some(g) = got.get(var) else {
            return Err(format!("{what}: variable {var} missing"));
        };
        if r.shape() != g.shape() {
            return Err(format!("{what}: variable {var} changed shape"));
        }
        if let Some(i) = first_bit_difference(r.data(), g.data()) {
            return Err(format!(
                "{what}: variable {var} element {i} is {:e}, reference {:e}",
                g.data()[i],
                r.data()[i]
            ));
        }
    }
    Ok(())
}

/// The per-class traffic classes in report order.
pub fn classes(report: &TrafficReport) -> [(&'static str, &TrafficSnapshot); 5] {
    [
        ("nccl", &report.nccl),
        ("mpi", &report.mpi),
        ("ps", &report.ps),
        ("local_agg", &report.local_agg),
        ("other", &report.other),
    ]
}

/// Measured per-class traffic must equal the static prediction (summed
/// over the same steps' feeds) field for field. A prediction of zero
/// network bytes is itself an error: equality of two empty ledgers
/// proves nothing.
pub fn traffic_matches(
    what: &str,
    predicted: &TrafficReport,
    measured: &TrafficReport,
) -> Result<(), String> {
    if predicted.total_network_bytes() == 0 {
        return Err(format!("{what}: the prediction moves no network bytes"));
    }
    for ((name, p), (_, m)) in classes(predicted).into_iter().zip(classes(measured)) {
        if p != m {
            let bytes = |s: &TrafficSnapshot| s.out_bytes.iter().sum::<u64>();
            return Err(format!(
                "{what}: class {name} measured {} B / {} msgs, predicted {} B / {} msgs",
                bytes(m),
                m.inter_messages + m.intra_messages,
                bytes(p),
                p.inter_messages + p.intra_messages
            ));
        }
    }
    Ok(())
}

/// A served output row must be bitwise equal to the training-graph
/// forward pass over the same snapshot.
pub fn served_bitwise(what: &str, reference: &[f32], served: &[f32]) -> Result<(), String> {
    if reference.is_empty() || reference.len() != served.len() {
        return Err(format!(
            "{what}: served {} values, reference has {}",
            served.len(),
            reference.len()
        ));
    }
    match first_bit_difference(reference, served) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: logit {i} is {:e}, reference {:e}",
            served[i], reference[i]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_tensor::DetRng;

    fn series(rng: &mut DetRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.normal()).collect()
    }

    /// Flips the lowest mantissa bit of one seeded element.
    fn perturb(values: &mut [f32], rng: &mut DetRng) {
        let i = rng.below(values.len());
        values[i] = f32::from_bits(values[i].to_bits() ^ 1);
    }

    #[test]
    fn losses_check_rejects_a_perturbed_loss() {
        for seed in 0..8 {
            let mut rng = DetRng::seed(seed);
            let reference = series(&mut rng, 200);
            losses_bitwise("t", &reference, &reference.clone()).expect("identical passes");
            let mut bad = reference.clone();
            perturb(&mut bad, &mut rng);
            assert!(
                losses_bitwise("t", &reference, &bad).is_err(),
                "seed {seed}"
            );
            assert!(losses_bitwise("t", &reference, &reference[1..]).is_err());
        }
        assert!(losses_bitwise("t", &[], &[]).is_err());
    }

    #[test]
    fn weights_check_rejects_a_perturbed_weight() {
        let mut rng = DetRng::seed(3);
        let reference: HashMap<usize, Tensor> = (0..4)
            .map(|v| (v, Tensor::randn([5, 3], 1.0, &mut rng)))
            .collect();
        weights_bitwise("t", &reference, &reference.clone()).expect("identical passes");
        let mut bad = reference.clone();
        let var = rng.below(4);
        let mut data = bad[&var].data().to_vec();
        perturb(&mut data, &mut rng);
        bad.insert(var, Tensor::new([5, 3], data).expect("same shape"));
        assert!(weights_bitwise("t", &reference, &bad).is_err());
        let mut missing = reference.clone();
        missing.remove(&0);
        assert!(weights_bitwise("t", &reference, &missing).is_err());
    }

    fn report(rng: &mut DetRng) -> TrafficReport {
        let snap = |rng: &mut DetRng| TrafficSnapshot {
            out_bytes: vec![rng.below(1 << 20) as u64 + 1, rng.below(1 << 20) as u64],
            in_bytes: vec![0, 0],
            link_bytes: HashMap::new(),
            intra_bytes_per_machine: vec![0, 0],
            inter_messages: rng.below(100) as u64 + 1,
            intra_messages: 0,
        };
        TrafficReport {
            nccl: snap(rng),
            mpi: snap(rng),
            ps: snap(rng),
            local_agg: TrafficSnapshot::default(),
            other: TrafficSnapshot::default(),
        }
    }

    #[test]
    fn traffic_check_rejects_an_off_by_one_byte_count() {
        for seed in 0..8 {
            let mut rng = DetRng::seed(seed);
            let predicted = report(&mut rng);
            traffic_matches("t", &predicted, &predicted.clone()).expect("identical passes");
            let mut measured = predicted.clone();
            let class = match rng.below(3) {
                0 => &mut measured.nccl,
                1 => &mut measured.mpi,
                _ => &mut measured.ps,
            };
            class.out_bytes[0] += 1;
            assert!(
                traffic_matches("t", &predicted, &measured).is_err(),
                "seed {seed}"
            );
            let mut measured = predicted.clone();
            measured.ps.inter_messages -= 1;
            assert!(traffic_matches("t", &predicted, &measured).is_err());
        }
        let empty = TrafficReport::default();
        assert!(traffic_matches("t", &empty, &empty).is_err());
    }

    #[test]
    fn served_check_rejects_a_flipped_value() {
        let mut rng = DetRng::seed(11);
        let reference = series(&mut rng, 800);
        served_bitwise("t", &reference, &reference.clone()).expect("identical passes");
        let mut bad = reference.clone();
        perturb(&mut bad, &mut rng);
        assert!(served_bitwise("t", &reference, &bad).is_err());
        assert!(served_bitwise("t", &reference, &reference[..799]).is_err());
    }
}
