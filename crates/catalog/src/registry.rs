//! The catalog itself: table and remote-system registries.

use crate::{remote::RemoteSystemProfile, remote::SystemId, table::TableDef};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Catalog lookup/registration failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// A table with this name is already registered.
    DuplicateTable(String),
    /// No table with this name.
    UnknownTable(String),
    /// A system with this id is already registered.
    DuplicateSystem(SystemId),
    /// No system with this id.
    UnknownSystem(SystemId),
    /// The table references a system that has not been registered.
    UnregisteredLocation {
        /// The table being registered.
        table: String,
        /// Its (unknown) location.
        location: SystemId,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::DuplicateTable(t) => write!(f, "table `{t}` already registered"),
            CatalogError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            CatalogError::DuplicateSystem(s) => write!(f, "system `{s}` already registered"),
            CatalogError::UnknownSystem(s) => write!(f, "unknown system `{s}`"),
            CatalogError::UnregisteredLocation { table, location } => {
                write!(
                    f,
                    "table `{table}` references unregistered system `{location}`"
                )
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// The IntelliSphere catalog: every participating system and every
/// (foreign) table, with schema, statistics, and location.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    tables: BTreeMap<String, TableDef>,
    systems: BTreeMap<SystemId, RemoteSystemProfile>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a remote system profile.
    pub fn register_system(&mut self, profile: RemoteSystemProfile) -> Result<(), CatalogError> {
        if self.systems.contains_key(&profile.id) {
            return Err(CatalogError::DuplicateSystem(profile.id.clone()));
        }
        self.systems.insert(profile.id.clone(), profile);
        Ok(())
    }

    /// Registers a table; its location must already be a known system.
    pub fn register_table(&mut self, table: TableDef) -> Result<(), CatalogError> {
        if self.tables.contains_key(&table.name) {
            return Err(CatalogError::DuplicateTable(table.name.clone()));
        }
        if !self.systems.contains_key(&table.location) {
            return Err(CatalogError::UnregisteredLocation {
                table: table.name.clone(),
                location: table.location.clone(),
            });
        }
        self.tables.insert(table.name.clone(), table);
        Ok(())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&TableDef, CatalogError> {
        self.tables
            .get(name)
            .ok_or_else(|| CatalogError::UnknownTable(name.to_string()))
    }

    /// Looks up a system profile.
    pub fn system(&self, id: &SystemId) -> Result<&RemoteSystemProfile, CatalogError> {
        self.systems
            .get(id)
            .ok_or_else(|| CatalogError::UnknownSystem(id.clone()))
    }

    /// Iterates over all tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.values()
    }

    /// Iterates over all systems in id order.
    pub fn systems(&self) -> impl Iterator<Item = &RemoteSystemProfile> {
        self.systems.values()
    }

    /// Number of registered tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of registered systems.
    pub fn system_count(&self) -> usize {
        self.systems.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        column::{ColumnDef, ColumnStats},
        remote::SystemKind,
        stats::TableStats,
    };

    fn hive_profile() -> RemoteSystemProfile {
        RemoteSystemProfile::paper_hive_cluster("hive-a")
    }

    fn table_on(name: &str, system: &str) -> TableDef {
        TableDef::new(
            name,
            vec![ColumnDef::int("a1")],
            TableStats::new(100, 40).with_column("a1", ColumnStats::duplicated_range(100, 1)),
            SystemId::new(system),
        )
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register_system(hive_profile()).unwrap();
        c.register_table(table_on("t1", "hive-a")).unwrap();
        assert_eq!(c.table("t1").unwrap().rows(), 100);
        assert_eq!(
            c.system(&SystemId::new("hive-a")).unwrap().kind,
            SystemKind::Hive
        );
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.register_system(hive_profile()).unwrap();
        c.register_table(table_on("t1", "hive-a")).unwrap();
        assert_eq!(
            c.register_table(table_on("t1", "hive-a")),
            Err(CatalogError::DuplicateTable("t1".into()))
        );
    }

    #[test]
    fn duplicate_system_rejected() {
        let mut c = Catalog::new();
        c.register_system(hive_profile()).unwrap();
        assert!(matches!(
            c.register_system(hive_profile()),
            Err(CatalogError::DuplicateSystem(_))
        ));
    }

    #[test]
    fn table_requires_registered_location() {
        let mut c = Catalog::new();
        assert!(matches!(
            c.register_table(table_on("t1", "ghost")),
            Err(CatalogError::UnregisteredLocation { .. })
        ));
    }

    #[test]
    fn unknown_lookups_error() {
        let c = Catalog::new();
        assert!(matches!(
            c.table("nope"),
            Err(CatalogError::UnknownTable(_))
        ));
        assert!(matches!(
            c.system(&SystemId::new("nope")),
            Err(CatalogError::UnknownSystem(_))
        ));
    }
}
