//! TABLE III: properties of the evaluation networks.

use spef_topology::{gen, standard};

use crate::report::{CsvFile, ExperimentResult, TextTable};

/// Runs the TABLE III reproduction.
pub fn run() -> ExperimentResult {
    let mut nets = vec![
        ("Backbone", standard::abilene()),
        ("Backbone", standard::cernet2()),
    ];
    for net in gen::table3_synthetic_networks() {
        let kind = if net.name().starts_with("Hier") {
            "2-level"
        } else {
            "Random"
        };
        nets.push((kind, net));
    }

    let mut table = TextTable::new(
        "TABLE III — properties for different networks",
        &["Net. ID", "Topology", "Node #", "Link #"],
    );
    let mut rows = Vec::new();
    for (kind, net) in &nets {
        table.push_row(vec![
            net.name().to_string(),
            kind.to_string(),
            net.node_count().to_string(),
            net.link_count().to_string(),
        ]);
        rows.push(vec![net.node_count() as f64, net.link_count() as f64]);
    }

    ExperimentResult {
        id: "table3",
        tables: vec![table],
        csvs: vec![CsvFile::from_rows("table3.csv", &["nodes", "links"], &rows)],
    }
}

#[cfg(test)]
mod tests {
    use crate::pinned::quick_run;

    #[test]
    fn matches_paper_table() {
        let r = quick_run("table3");
        let rows = &r.tables[0].rows;
        let expected = [
            ("Abilene", "11", "28"),
            ("Cernet2", "20", "44"),
            ("Hier50a", "50", "222"),
            ("Hier50b", "50", "152"),
            ("Rand50a", "50", "242"),
            ("Rand50b", "50", "230"),
            ("Rand100", "100", "392"),
        ];
        assert_eq!(rows.len(), expected.len());
        for (row, (name, nodes, links)) in rows.iter().zip(expected) {
            assert_eq!(row[0], name);
            assert_eq!(row[2], nodes);
            assert_eq!(row[3], links);
        }
    }
}
