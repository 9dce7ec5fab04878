//! Honest green: a result file the documentation names must be in the
//! tree. Every `results/<name>.json` path mentioned in `README.md`,
//! `EXPERIMENTS.md` or `docs/*.md` has to exist (glob mentions such as
//! `results/*.json` are descriptions, not files, and are skipped).
//! And the reverse: every experiment `run_all` runs writes
//! `results/<name minus exp_>.json`, and that file has to be in the tree
//! too, whether or not a document happens to spell its path.

use std::path::Path;

/// The `results/….json` paths `text` mentions, in order.
fn named_results(text: &str) -> Vec<&str> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_-./*".contains(c);
    text.match_indices("results/")
        .filter_map(|(at, _)| {
            let rest = &text[at..];
            let end = rest.find(|c| !is_path(c)).unwrap_or(rest.len());
            let path = &rest[..end];
            let path = &path[..path.rfind(".json")? + ".json".len()];
            (!path.contains('*')).then_some(path)
        })
        .collect()
}

/// The `"exp_…"` string literals in `source`, in order.
fn experiment_names(source: &str) -> Vec<&str> {
    source
        .split('"')
        .skip(1)
        .step_by(2)
        .filter(|lit| lit.starts_with("exp_"))
        .collect()
}

#[test]
fn every_experiment_run_all_runs_has_its_result_in_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let run_all = std::fs::read_to_string(root.join("crates/bench/src/bin/run_all.rs"))
        .expect("readable run_all.rs");
    let names = experiment_names(&run_all);
    assert!(!names.is_empty(), "the scan found no experiment at all");
    for name in names {
        let result = format!("results/{}.json", &name["exp_".len()..]);
        assert!(
            root.join(&result).is_file(),
            "run_all runs {name}, whose {result} is not in the tree"
        );
    }
}

#[test]
fn every_results_file_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs = vec![root.join("README.md"), root.join("EXPERIMENTS.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.expect("readable docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push(path);
        }
    }
    let mut named = 0;
    for doc in &docs {
        let text = std::fs::read_to_string(doc).expect("readable doc");
        for path in named_results(&text) {
            named += 1;
            assert!(
                root.join(path).is_file(),
                "{} names {path}, which is not in the tree",
                doc.display()
            );
        }
    }
    assert!(named > 0, "the scan found no results path at all");
}

#[test]
fn the_scan_reads_paths_out_of_prose() {
    let text = "see `results/a_b.json`, results/*.json and (results/fig-1.json).";
    assert_eq!(
        named_results(text),
        ["results/a_b.json", "results/fig-1.json"]
    );
    assert!(named_results("results/ is a directory").is_empty());

    let source = r#"const E: &[&str] = &["exp_fig1", "exp_table2"]; // "other" "#;
    assert_eq!(experiment_names(source), ["exp_fig1", "exp_table2"]);
}
