//! Operator-placement enumeration (§2 "Query Plans").
//!
//! "Assume joining two relations R and S, where R is stored in Hive and S
//! is stored in Presto. Then, there are three possibilities for placing
//! the join operator, either on Hive (and S will be passed to Teradata and
//! then to Hive), on Presto (and R will be passed to Teradata and then to
//! Presto), or on Teradata (and both R and S will be passed to Teradata)."

use catalog::{Capability, Catalog, SystemId};
use sqlkit::logical::LogicalPlan;
use std::collections::BTreeSet;

/// One data movement implied by a placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// Table being moved.
    pub(crate) table: String,
    /// Where it lives.
    pub(crate) from: SystemId,
    /// Where the operator runs.
    pub(crate) to: SystemId,
    /// Estimated bytes moved.
    pub bytes: f64,
    /// Hops through the QueryGrid (1 for x↔Teradata, 2 for
    /// remote→Teradata→remote).
    pub hops: u32,
}

/// A candidate host system for the query's operators, with the transfers
/// it implies.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementOption {
    /// The executing system.
    pub system: SystemId,
    /// The table movements required.
    pub transfers: Vec<Transfer>,
}

/// Enumerates candidate placements for a query's operator(s): every system
/// that owns at least one referenced table, plus the master. Systems
/// lacking a needed capability are skipped.
pub fn enumerate_placements(
    catalog: &Catalog,
    plan: &LogicalPlan,
) -> Result<Vec<PlacementOption>, catalog::CatalogError> {
    let tables = plan.root.tables();
    let needs_join = plan.root.join_count() > 0;
    let needs_agg = plan.root.has_aggregate();

    // Owner of each referenced table.
    let mut owners: Vec<(String, SystemId, f64)> = Vec::new();
    for (table, _) in &tables {
        let def = catalog.table(table)?;
        owners.push((
            table.clone(),
            def.location.clone(),
            def.stats.total_bytes() as f64,
        ));
    }

    let mut candidates: BTreeSet<SystemId> = owners.iter().map(|(_, sys, _)| sys.clone()).collect();
    candidates.insert(SystemId::master());

    let mut options = Vec::new();
    for host in candidates {
        if host != SystemId::master() {
            let profile = catalog.system(&host)?;
            if needs_join && !profile.supports(Capability::Join) {
                continue;
            }
            if needs_agg && !profile.supports(Capability::Aggregate) {
                continue;
            }
        }
        let transfers = owners
            .iter()
            .filter(|(_, owner, _)| owner != &host)
            .map(|(table, owner, bytes)| {
                let hops = crate::transfer::hops_between(owner, &host);
                Transfer {
                    table: table.clone(),
                    from: owner.clone(),
                    to: host.clone(),
                    bytes: *bytes,
                    hops,
                }
            })
            .collect();
        options.push(PlacementOption {
            system: host,
            transfers,
        });
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::{ColumnDef, ColumnStats, RemoteSystemProfile, SystemKind, TableDef, TableStats};
    use sqlkit::sql_to_plan;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_system(RemoteSystemProfile::paper_hive_cluster("hive-a"))
            .unwrap();
        c.register_system(RemoteSystemProfile::new(
            SystemId::new("presto-b"),
            SystemKind::Spark,
            4,
            4,
            1 << 34,
            vec![
                Capability::Filter,
                Capability::Project,
                Capability::Join,
                Capability::Aggregate,
            ],
        ))
        .unwrap();
        c.register_system(RemoteSystemProfile::new(
            SystemId::master(),
            SystemKind::Teradata,
            2,
            16,
            1 << 36,
            vec![
                Capability::Filter,
                Capability::Project,
                Capability::Join,
                Capability::Aggregate,
            ],
        ))
        .unwrap();
        for (name, sys, rows) in [
            ("r_tab", "hive-a", 1_000_000u64),
            ("s_tab", "presto-b", 100_000),
        ] {
            let stats = TableStats::new(rows, 100)
                .with_column("a1", ColumnStats::duplicated_range(rows, 1));
            c.register_table(TableDef::new(
                name,
                vec![ColumnDef::int("a1")],
                stats,
                SystemId::new(sys),
            ))
            .unwrap();
        }
        c
    }

    #[test]
    fn join_across_two_remotes_yields_three_placements() {
        let c = catalog();
        let plan = sql_to_plan("SELECT r.a1 FROM r_tab r JOIN s_tab s ON r.a1 = s.a1").unwrap();
        let opts = enumerate_placements(&c, &plan).unwrap();
        let hosts: Vec<String> = opts.iter().map(|o| o.system.as_str().to_string()).collect();
        assert_eq!(hosts.len(), 3);
        assert!(hosts.contains(&"hive-a".to_string()));
        assert!(hosts.contains(&"presto-b".to_string()));
        assert!(hosts.contains(&"teradata".to_string()));
    }

    #[test]
    fn remote_to_remote_transfers_take_two_hops() {
        let c = catalog();
        let plan = sql_to_plan("SELECT r.a1 FROM r_tab r JOIN s_tab s ON r.a1 = s.a1").unwrap();
        let opts = enumerate_placements(&c, &plan).unwrap();
        let on_hive = opts.iter().find(|o| o.system.as_str() == "hive-a").unwrap();
        assert_eq!(on_hive.transfers.len(), 1);
        assert_eq!(on_hive.transfers[0].table, "s_tab");
        assert_eq!(on_hive.transfers[0].hops, 2);
        let on_master = opts
            .iter()
            .find(|o| o.system == SystemId::master())
            .unwrap();
        assert_eq!(on_master.transfers.len(), 2);
        assert!(on_master.transfers.iter().all(|t| t.hops == 1));
    }

    #[test]
    fn local_query_has_a_free_local_placement() {
        let c = catalog();
        let plan = sql_to_plan("SELECT a1 FROM r_tab").unwrap();
        let opts = enumerate_placements(&c, &plan).unwrap();
        let local = opts.iter().find(|o| o.system.as_str() == "hive-a").unwrap();
        assert!(local.transfers.is_empty());
    }

    #[test]
    fn capability_gaps_remove_candidates() {
        let mut c = catalog();
        // Rebuild hive-a without join capability.
        let mut c2 = Catalog::new();
        c2.register_system(RemoteSystemProfile::new(
            SystemId::new("hive-a"),
            SystemKind::Hive,
            3,
            2,
            1 << 33,
            vec![Capability::Filter, Capability::Project],
        ))
        .unwrap();
        for sys in c.systems() {
            if sys.id.as_str() != "hive-a" {
                c2.register_system(sys.clone()).unwrap();
            }
        }
        for t in c.tables() {
            c2.register_table(t.clone()).unwrap();
        }
        c = c2;
        let plan = sql_to_plan("SELECT r.a1 FROM r_tab r JOIN s_tab s ON r.a1 = s.a1").unwrap();
        let opts = enumerate_placements(&c, &plan).unwrap();
        assert!(opts.iter().all(|o| o.system.as_str() != "hive-a"));
    }
}
