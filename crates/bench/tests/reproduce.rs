//! EXPERIMENTS.md is the golden file of the paper's figures: the first
//! ```` ```text ```` block after the line that names `--bin reproduce --
//! <figure>` is that figure's text, byte for byte.
//!
//! A debug build runs the four figures that take seconds there; the
//! other seven take up to minutes and run in `cargo test --release -p
//! nocsyn-bench --test reproduce` (a ci.sh step).

use std::process::Command;

use nocsyn_bench::figures::Figure;

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

/// The command prefix whose next word names a figure.
const COMMAND: &str = "--bin reproduce -- ";

/// One reference to a figure in EXPERIMENTS.md, in document order, with
/// the first ```` ```text ```` block after it and before the next
/// reference (`None` if there is none).
fn references() -> Vec<(&'static str, Option<&'static str>)> {
    let starts: Vec<usize> = EXPERIMENTS
        .match_indices(COMMAND)
        .map(|(at, _)| at + COMMAND.len())
        .collect();
    let mut refs = Vec::new();
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(EXPERIMENTS.len());
        let rest = &EXPERIMENTS[start..end];
        let name_len = rest
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        if name_len == 0 {
            // A placeholder such as `<figure>`.
            continue;
        }
        let block = rest.find("\n```text\n").and_then(|open| {
            let body = &rest[open + "\n```text\n".len()..];
            body.find("\n```").map(|close| &body[..=close])
        });
        refs.push((&rest[..name_len], block));
    }
    refs
}

/// Renders `figure` and compares it with its EXPERIMENTS.md block.
fn check(figure: Figure) {
    let name = figure.name();
    let pinned = references()
        .into_iter()
        .find(|&(n, _)| n == name)
        .and_then(|(_, block)| block)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no block for `{name}`"));
    let rendered = figure.render().expect("the figure renders");
    assert!(
        rendered == pinned,
        "`{name}` no longer matches its EXPERIMENTS.md block. Regenerate it with\n  \
         cargo run --release -p nocsyn-bench --bin reproduce -- {name}\n\
         which prints:\n{rendered}"
    );
}

#[test]
fn every_figure_has_exactly_one_block() {
    let refs = references();
    for (name, _) in &refs {
        assert!(
            Figure::from_name(name).is_some(),
            "EXPERIMENTS.md names unknown figure `{name}`"
        );
    }
    for figure in Figure::ALL {
        let blocks: Vec<_> = refs.iter().filter(|(n, _)| *n == figure.name()).collect();
        assert_eq!(
            blocks.len(),
            1,
            "`{}` must be named exactly once",
            figure.name()
        );
        assert!(
            blocks[0].1.is_some(),
            "no ```text block follows `{}`",
            figure.name()
        );
    }
}

#[test]
fn figure_names_parse_and_unknown_names_are_rejected() {
    for figure in Figure::ALL {
        assert_eq!(Figure::from_name(figure.name()), Some(figure));
    }
    for bad in ["", "fig9", "Fig7", "fig7 ", "--json", "design-example"] {
        assert_eq!(Figure::from_name(bad), None, "{bad:?}");
    }
}

#[test]
fn reproduce_without_a_known_figure_prints_usage_and_exits_2() {
    for args in [&[][..], &["fig9"], &["fig7", "--json"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("the reproduce binary starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let usage = String::from_utf8(out.stderr).expect("usage is UTF-8");
        for figure in Figure::ALL {
            assert!(usage.contains(figure.name()), "{usage}");
        }
    }
}

#[test]
fn design_example_is_pinned() {
    check(Figure::DesignExample);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in a debug build; ci.sh runs it in release"
)]
fn fig7_is_pinned() {
    check(Figure::Fig7);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in a debug build; ci.sh runs it in release"
)]
fn fig8_is_pinned() {
    check(Figure::Fig8);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in a debug build; ci.sh runs it in release"
)]
fn sensitivity_is_pinned() {
    check(Figure::Sensitivity);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in a debug build; ci.sh runs it in release"
)]
fn ablation_is_pinned() {
    check(Figure::Ablation);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in a debug build; ci.sh runs it in release"
)]
fn utilization_is_pinned() {
    check(Figure::Utilization);
}

#[test]
fn skew_sweep_is_pinned() {
    check(Figure::SkewSweep);
}

#[test]
fn vc_sweep_is_pinned() {
    check(Figure::VcSweep);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in a debug build; ci.sh runs it in release"
)]
fn pareto_is_pinned() {
    check(Figure::Pareto);
}

#[test]
fn load_latency_is_pinned() {
    check(Figure::LoadLatency);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in a debug build; ci.sh runs it in release"
)]
fn degradation_is_pinned() {
    check(Figure::Degradation);
}
