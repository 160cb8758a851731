//! Table schemas: typed columns, primary keys, and foreign keys.

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// Column data types supported by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    Bool,
    Int,
    Float,
    Text,
}

impl ColumnType {
    /// Whether a value is admissible in a column of this type. `Null` is
    /// admissible everywhere except primary keys (checked separately).
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::Bool, Value::Bool(_))
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Float, Value::Int(_))
                | (ColumnType::Text, Value::Text(_))
        )
    }
}

/// A foreign-key constraint: `column` references `references_table
/// (references_column)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    pub column: String,
    pub references_table: String,
    pub references_column: String,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
}

/// Schema of a single table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<Column>,
    /// Name of the primary-key column, if declared.
    pub primary_key: Option<String>,
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableSchema {
    pub fn new(name: impl Into<String>) -> Self {
        TableSchema {
            name: name.into(),
            columns: Vec::new(),
            primary_key: None,
            foreign_keys: Vec::new(),
        }
    }

    /// Appends a column (builder style).
    pub fn column(mut self, name: impl Into<String>, ty: ColumnType) -> Self {
        self.columns.push(Column { name: name.into(), ty });
        self
    }

    /// Declares the primary key column (must already be defined).
    pub fn primary_key(mut self, name: impl Into<String>) -> Self {
        self.primary_key = Some(name.into());
        self
    }

    /// Declares a foreign key (builder style).
    pub fn foreign_key(
        mut self,
        column: impl Into<String>,
        references_table: impl Into<String>,
        references_column: impl Into<String>,
    ) -> Self {
        self.foreign_keys.push(ForeignKey {
            column: column.into(),
            references_table: references_table.into(),
            references_column: references_column.into(),
        });
        self
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column definition by name.
    pub fn column_def(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Whether `column` is (part of) a foreign key.
    pub fn is_foreign_key(&self, column: &str) -> bool {
        self.foreign_keys.iter().any(|fk| fk.column == column)
    }

    /// Validates internal consistency: at least one column, PK exists as
    /// a column, FK columns exist, column names unique.
    pub fn check(&self) -> Result<(), String> {
        if self.columns.is_empty() {
            return Err(format!("table `{}` has no columns", self.name));
        }
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|o| o.name == c.name) {
                return Err(format!("table `{}`: duplicate column `{}`", self.name, c.name));
            }
        }
        if let Some(pk) = &self.primary_key {
            if self.column_index(pk).is_none() {
                return Err(format!("table `{}`: primary key `{pk}` is not a column", self.name));
            }
        }
        for fk in &self.foreign_keys {
            if self.column_index(&fk.column).is_none() {
                return Err(format!(
                    "table `{}`: foreign key column `{}` is not a column",
                    self.name, fk.column
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drug() -> TableSchema {
        TableSchema::new("drug")
            .column("drug_id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .primary_key("drug_id")
    }

    #[test]
    fn builder_and_lookup() {
        let s = drug();
        assert_eq!(s.column_index("name"), Some(1));
        assert_eq!(s.column_def("drug_id").unwrap().ty, ColumnType::Int);
        assert!(s.check().is_ok());
    }

    #[test]
    fn check_rejects_a_table_without_columns() {
        // A zero-column row occupies no snapshot bytes, so no byte count
        // could bound how many of them a snapshot claims.
        assert!(TableSchema::new("t").check().is_err());
    }

    #[test]
    fn check_rejects_missing_pk_column() {
        let s = TableSchema::new("t").column("a", ColumnType::Int).primary_key("b");
        assert!(s.check().is_err());
    }

    #[test]
    fn check_rejects_duplicate_columns() {
        let s = TableSchema::new("t").column("a", ColumnType::Int).column("a", ColumnType::Text);
        assert!(s.check().is_err());
    }

    #[test]
    fn check_rejects_missing_fk_column() {
        let s =
            TableSchema::new("t").column("a", ColumnType::Int).foreign_key("nope", "other", "id");
        assert!(s.check().is_err());
    }

    #[test]
    fn column_type_admission() {
        assert!(ColumnType::Int.admits(&Value::Int(1)));
        assert!(ColumnType::Int.admits(&Value::Null));
        assert!(!ColumnType::Int.admits(&Value::text("x")));
        // Ints are admissible in float columns (numeric widening).
        assert!(ColumnType::Float.admits(&Value::Int(1)));
        assert!(!ColumnType::Bool.admits(&Value::Int(1)));
    }

    #[test]
    fn is_foreign_key_detection() {
        let s = TableSchema::new("dosage")
            .column("drug_id", ColumnType::Int)
            .foreign_key("drug_id", "drug", "drug_id");
        assert!(s.is_foreign_key("drug_id"));
        assert!(!s.is_foreign_key("other"));
    }
}
