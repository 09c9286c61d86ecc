//! The negative conformance test: a 1-ulp perturbation of any solver
//! output must fail the golden diff, and the report must name the
//! perturbed field and its ulp distance — proving the gate really is
//! bit-for-bit and its reports are actionable.

use hems_conformance::fixtures::{self, ulp_distance};
use hems_obs::json::{self, Value};

/// Bumps the first non-integer finite number in the tree by one ulp.
/// Returns the JSON path it perturbed.
fn perturb_first_float(value: &mut Value, path: String) -> Option<String> {
    match value {
        Value::Num(x) if x.is_finite() && x.fract() != 0.0 => {
            *x = f64::from_bits(x.to_bits() + 1);
            Some(path)
        }
        Value::Obj(fields) => fields
            .iter_mut()
            .find_map(|(k, v)| perturb_first_float(v, format!("{path}.{k}"))),
        Value::Arr(items) => items
            .iter_mut()
            .enumerate()
            .find_map(|(i, v)| perturb_first_float(v, format!("{path}[{i}]"))),
        _ => None,
    }
}

#[test]
fn one_ulp_perturbation_fails_golden_diff_with_field_report() {
    let all = fixtures::capture_all().expect("capture must succeed");
    assert!(all.len() >= 10, "need >= 10 fixtures, got {}", all.len());
    let mut perturbed_any = false;
    for fixture in &all {
        let golden = fixture.text();
        // Perturb the first float-bearing line of this fixture.
        let mut lines = fixture.lines.clone();
        let mut hit = None;
        for (i, line) in lines.iter_mut().enumerate() {
            let Ok(mut value) = json::parse(line) else {
                continue;
            };
            if let Some(path) = perturb_first_float(&mut value, format!("line {}", i + 1)) {
                *line = value.render();
                hit = Some(path);
                break;
            }
        }
        let Some(path) = hit else {
            continue; // fixture carries no non-integer floats (e.g. digests)
        };
        perturbed_any = true;
        let mut current = lines.join("\n");
        current.push('\n');
        let report = fixtures::diff(fixture.name, &golden, &current)
            .unwrap_or_else(|| panic!("1-ulp drift in '{}' passed the diff", fixture.name));
        assert!(
            report.contains(&path),
            "report for '{}' should name the perturbed field {path}:\n{report}",
            fixture.name
        );
        assert!(
            report.contains("1 ulp apart"),
            "report for '{}' should state the ulp distance:\n{report}",
            fixture.name
        );
    }
    assert!(perturbed_any, "no fixture had a perturbable float");
}

#[test]
fn ulp_distance_is_exact_for_adjacent_floats() {
    let x = 0.7092573459461569f64;
    let y = f64::from_bits(x.to_bits() + 1);
    assert_eq!(ulp_distance(x, y), 1);
    assert_eq!(ulp_distance(x, x), 0);
    // Across the sign change the mapping stays monotone: the smallest
    // negative and positive subnormals are two steps apart (via ±0).
    let tiny = f64::from_bits(1);
    assert_eq!(ulp_distance(-tiny, tiny), 2);
    assert_eq!(ulp_distance(-0.0, 0.0), 0);
}

#[test]
fn line_count_drift_is_reported() {
    let all = fixtures::capture_all().expect("capture must succeed");
    let fixture = all.first().expect("at least one fixture");
    let golden = fixture.text();
    let mut truncated: Vec<&str> = golden.lines().collect();
    truncated.pop();
    let mut current = truncated.join("\n");
    current.push('\n');
    let report =
        fixtures::diff(fixture.name, &golden, &current).expect("missing line must fail diff");
    assert!(
        report.contains("line count"),
        "report should call out the line-count drift:\n{report}"
    );
}
