//! Executor for the SQL subset, split into two phases (DESIGN.md §14.2):
//!
//! * **bind** — schema-dependent name resolution: table lookups, column
//!   references, predicate lowering, projection naming, access-path
//!   choice. Produces a [`BoundPlan`] that depends only on the schemas
//!   and indexes of the referenced tables, so binding alone type-checks
//!   a query without reading a row (`KnowledgeBase::prepare`). A string
//!   literal equal to one of the caller's markers (`'<@Drug>'`) binds as
//!   a parameter, so a template is bound once and run with many values.
//! * **execute** — row-dependent work: hash joins, filtering, projection,
//!   DISTINCT/ORDER BY/LIMIT, driven entirely by a `BoundPlan` and its
//!   parameter values. A tuple is one row position per joined slot,
//!   stored flat, and each predicate runs as soon as the slots it reads
//!   are bound.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::stats;
use crate::store::{KbError, KnowledgeBase, ResultSet, Table};
use crate::value::Value;

use super::ast::{ColumnRef, CompareOp, Predicate, Select, SelectItem};

/// A bound column: which joined-table slot and which column index within it.
#[derive(Debug, Clone, Copy)]
struct Bound {
    slot: usize,
    col: usize,
}

/// Per-binding schema info used during name resolution.
struct Binding<'a> {
    name: &'a str,
    table: &'a str,
    columns: Vec<&'a str>,
}

/// One bound join: which table fills the new slot, the already-bound
/// column it matches against, and the key column within the new table.
#[derive(Debug, Clone)]
struct BoundJoin {
    table: String,
    existing: Bound,
    incoming: Bound,
}

/// One lowered WHERE predicate.
#[derive(Debug)]
struct BoundPred {
    lhs: Bound,
    op: CompareOp,
    rhs: PredRhs,
    /// The last slot the predicate reads: it runs right after the join
    /// that binds this slot (slot 0: on the FROM rows themselves).
    slot: usize,
}

/// A fully bound, reusable query plan: every name resolved to slot/column
/// indices, every predicate lowered, the projection list and output
/// headers fixed. A plan depends only on the *schemas* of the referenced
/// tables (which this KB never alters after creation), never on row data,
/// so it runs unchanged after inserts. Its parameters take their values
/// at execution (DESIGN.md §14.2).
#[derive(Debug)]
pub struct BoundPlan {
    /// How many parameter values every execution must supply.
    params: usize,
    from_table: String,
    joins: Vec<BoundJoin>,
    preds: Vec<BoundPred>,
    projections: Vec<Bound>,
    /// Output column labels, shared with every result the plan yields.
    out_cols: Arc<Vec<String>>,
    distinct: bool,
    /// ORDER BY as (position in the projection, descending).
    order: Option<(usize, bool)>,
    limit: Option<usize>,
    /// How the FROM table is read (DESIGN.md §14). Chosen at bind time
    /// from the available indexes and cardinality estimates.
    access: AccessPath,
}

/// Index-backed access path over the FROM table. Always a *candidate
/// generator*: the executor re-applies every predicate to the rows an
/// index yields, so any path produces byte-identical results to a scan.
#[derive(Debug, Clone)]
enum AccessPath {
    /// Read every row.
    Scan,
    /// Probe the index on the column `preds[pred]` compares with its
    /// literal or parameter.
    IndexEq { pred: usize },
    /// Probe the index on the *joined* slot `preds[pred]` reads, then
    /// walk the joins back to slot 0, mapping positions hop by hop
    /// through the index on each hop's existing-side key column
    /// (DESIGN.md §14.1).
    JoinProbe { pred: usize },
}

impl BoundPlan {
    /// The output column labels the plan projects, in SELECT-list order.
    /// Labels are unqualified except where two projected columns share a
    /// name across different bindings (then `binding.column`).
    pub fn columns(&self) -> &[String] {
        &self.out_cols
    }

    /// The tables the plan reads: the FROM table followed by each join's
    /// table, in join order.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.from_table.as_str()).chain(self.joins.iter().map(|j| j.table.as_str()))
    }

    /// Number of lowered WHERE predicates.
    pub fn predicate_count(&self) -> usize {
        self.preds.len()
    }

    /// Number of parameter values an execution takes: one per marker the
    /// plan was prepared with.
    pub fn param_count(&self) -> usize {
        self.params
    }

    /// Whether the planner chose an index-backed access path for the
    /// FROM table (as opposed to a full scan).
    pub fn uses_index(&self) -> bool {
        !matches!(self.access, AccessPath::Scan)
    }

    /// A short human-readable label for the chosen access path
    /// (`scan`, `index_eq`, `join_probe`) — used by the verify
    /// bind-check report and tests.
    pub fn access_label(&self) -> &'static str {
        match self.access {
            AccessPath::Scan => "scan",
            AccessPath::IndexEq { .. } => "index_eq",
            AccessPath::JoinProbe { .. } => "join_probe",
        }
    }

    /// The ascending FROM-table positions the access path yields — a
    /// superset of the rows any output tuple starts from — or `None` to
    /// scan (no path, or a probe that declines).
    fn candidates(&self, slots: &Slots<'_>, params: &[Value]) -> Option<Vec<u32>> {
        let literal = |pred: usize| self.preds[pred].rhs.value(params);
        match &self.access {
            AccessPath::Scan => None,
            AccessPath::IndexEq { pred } => {
                slots.0[0].index(self.preds[*pred].lhs.col)?.probe_sql_eq(literal(*pred)?)
            }
            AccessPath::JoinProbe { pred } => {
                let probe = self.preds[*pred].lhs;
                let mut positions =
                    slots.0[probe.slot].index(probe.col)?.probe_sql_eq(literal(*pred)?)?;
                let mut slot = probe.slot;
                while slot > 0 {
                    // A row of `slot` joins exactly the rows of the
                    // existing side whose key raw-equals its own: the
                    // join's equality, which `probe_raw` answers. NULL
                    // keys find nothing, as NULL is never indexed.
                    let join = &self.joins[slot - 1];
                    let from = slots.0[slot];
                    let hop = slots.0[join.existing.slot].index(join.existing.col)?;
                    let mut next: Vec<u32> = positions
                        .iter()
                        .filter_map(|&p| hop.probe_raw(&from.rows[p as usize][join.incoming.col]))
                        .flatten()
                        .copied()
                        .collect();
                    next.sort_unstable();
                    next.dedup();
                    positions = next;
                    slot = join.existing.slot;
                }
                Some(positions)
            }
        }
    }
}

/// The tables of a plan's slots, in slot order: a flat tuple's `slot`-th
/// position is a row of `self.0[slot]`.
struct Slots<'a>(Vec<&'a Table>);

impl<'a> Slots<'a> {
    fn value(&self, tuple: &[u32], b: Bound) -> &'a Value {
        &self.0[b.slot].rows[tuple[b.slot] as usize][b.col]
    }
}

impl BoundPred {
    fn holds(&self, slots: &Slots<'_>, tuple: &[u32], params: &[Value]) -> bool {
        let lhs = slots.value(tuple, self.lhs);
        match &self.rhs {
            PredRhs::Literal(v) => compare(lhs, self.op, v),
            PredRhs::Param(i) => compare(lhs, self.op, &params[*i]),
            PredRhs::Column(b) => compare(lhs, self.op, slots.value(tuple, *b)),
            PredRhs::Needle(needle) => lhs.as_text().is_some_and(|s| contains_lowered(s, needle)),
        }
    }
}

/// Binds a parsed SELECT against the current schemas, producing a
/// reusable [`BoundPlan`]. A string literal equal to `markers[i]` binds as
/// parameter `i`; a literal that merely contains a marker is an error, so
/// marker text never runs as a constant.
pub fn bind(kb: &KnowledgeBase, stmt: &Select, markers: &[&str]) -> Result<BoundPlan, KbError> {
    // Resolve bindings: FROM table plus one per join.
    let mut bindings: Vec<Binding<'_>> = Vec::with_capacity(1 + stmt.joins.len());
    let from_table = kb.table(&stmt.from.table)?;
    bindings.push(Binding {
        name: stmt.from.binding(),
        table: &stmt.from.table,
        columns: from_table.schema.columns.iter().map(|c| c.name.as_str()).collect(),
    });
    for join in &stmt.joins {
        let t = kb.table(&join.table.table)?;
        bindings.push(Binding {
            name: join.table.binding(),
            table: &join.table.table,
            columns: t.schema.columns.iter().map(|c| c.name.as_str()).collect(),
        });
    }
    // Reject duplicate binding names.
    {
        let mut seen = HashSet::new();
        for b in &bindings {
            if !seen.insert(b.name) {
                return Err(KbError::Semantic(format!(
                    "duplicate table binding `{}`; add aliases",
                    b.name
                )));
            }
        }
    }

    let resolve = |cref: &ColumnRef| -> Result<Bound, KbError> {
        match &cref.qualifier {
            Some(q) => {
                let slot = bindings
                    .iter()
                    .position(|b| b.name == q)
                    .ok_or_else(|| KbError::Semantic(format!("unknown table or alias `{q}`")))?;
                let col =
                    bindings[slot].columns.iter().position(|c| *c == cref.column).ok_or_else(
                        || KbError::UnknownColumn {
                            table: bindings[slot].table.to_string(),
                            column: cref.column.clone(),
                        },
                    )?;
                Ok(Bound { slot, col })
            }
            None => {
                let mut found = None;
                for (slot, b) in bindings.iter().enumerate() {
                    if let Some(col) = b.columns.iter().position(|c| *c == cref.column) {
                        if found.is_some() {
                            return Err(KbError::Semantic(format!(
                                "ambiguous column `{}`",
                                cref.column
                            )));
                        }
                        found = Some(Bound { slot, col });
                    }
                }
                found.ok_or_else(|| KbError::Semantic(format!("unknown column `{}`", cref.column)))
            }
        }
    };

    // Bind each join's equality key pair.
    let mut joins: Vec<BoundJoin> = Vec::with_capacity(stmt.joins.len());
    for (join_idx, join) in stmt.joins.iter().enumerate() {
        let left_bound = resolve(&join.left)?;
        let right_bound = resolve(&join.right)?;
        let new_slot = join_idx + 1;
        // Exactly one side must refer to the newly joined table.
        let (existing, incoming) = if right_bound.slot == new_slot && left_bound.slot < new_slot {
            (left_bound, right_bound)
        } else if left_bound.slot == new_slot && right_bound.slot < new_slot {
            (right_bound, left_bound)
        } else {
            return Err(KbError::Semantic(format!(
                "join condition must relate `{}` to an earlier table",
                join.table.binding()
            )));
        };
        joins.push(BoundJoin { table: join.table.table.clone(), existing, incoming });
    }

    // Lower predicates.
    let preds: Vec<BoundPred> = stmt
        .predicates
        .iter()
        .map(|p| match p {
            Predicate::ColumnLiteral { column, op, literal } => {
                let text = literal.as_text();
                let param = text.and_then(|t| markers.iter().position(|m| *m == t));
                if let (None, Some(t)) = (param, text) {
                    if let Some(m) = markers.iter().find(|m| t.contains(**m)) {
                        return Err(KbError::Semantic(format!(
                            "marker `{m}` must be a whole string literal, found in '{t}'"
                        )));
                    }
                }
                // CONTAINS needles are lowered once here, not once per row.
                let rhs = match (param, op, text) {
                    (Some(i), ..) => PredRhs::Param(i),
                    (None, CompareOp::Contains, Some(t)) => PredRhs::Needle(t.to_lowercase()),
                    _ => PredRhs::Literal(literal.clone()),
                };
                let lhs = resolve(column)?;
                Ok(BoundPred { lhs, op: *op, rhs, slot: lhs.slot })
            }
            Predicate::ColumnColumn { left, op, right } => {
                let (lhs, rhs) = (resolve(left)?, resolve(right)?);
                let slot = lhs.slot.max(rhs.slot);
                Ok(BoundPred { lhs, op: *op, rhs: PredRhs::Column(rhs), slot })
            }
        })
        .collect::<Result<_, KbError>>()?;

    // Bind the projection. Explicit column items resolve first so
    // same-named columns projected from *different* bindings can be
    // qualified (`a.name`, `b.name` on a self-join), matching the `Star`
    // path; a name projected from a single binding stays unqualified.
    let mut column_items: Vec<(usize, &ColumnRef, Bound)> = Vec::new();
    for (pos, item) in stmt.items.iter().enumerate() {
        if let SelectItem::Column(cref) = item {
            column_items.push((pos, cref, resolve(cref)?));
        }
    }
    let needs_qualifier = |cref: &ColumnRef, bound: Bound| {
        column_items.iter().any(|&(_, c, b)| c.column == cref.column && b.slot != bound.slot)
    };
    let mut out_cols: Vec<String> = Vec::new();
    let mut projections: Vec<Bound> = Vec::new();
    for (pos, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                for (slot, b) in bindings.iter().enumerate() {
                    for (col, name) in b.columns.iter().enumerate() {
                        out_cols.push(if bindings.len() > 1 {
                            format!("{}.{name}", b.name)
                        } else {
                            (*name).to_string()
                        });
                        projections.push(Bound { slot, col });
                    }
                }
            }
            SelectItem::Column(cref) => {
                let &(_, _, bound) = column_items
                    .iter()
                    .find(|&&(p, _, _)| p == pos)
                    .expect("every column item was resolved above");
                out_cols.push(if needs_qualifier(cref, bound) {
                    format!("{}.{}", bindings[bound.slot].name, cref.column)
                } else {
                    cref.column.clone()
                });
                projections.push(bound);
            }
        }
    }

    // Bind ORDER BY to a position in the projection.
    let order = match &stmt.order_by {
        Some(order) => {
            let key_bound = resolve(&order.column)?;
            let key_pos = projections
                .iter()
                .position(|b| b.slot == key_bound.slot && b.col == key_bound.col)
                .ok_or_else(|| {
                    KbError::Semantic(format!(
                        "ORDER BY column `{}` must appear in the SELECT list",
                        order.column
                    ))
                })?;
            Some((key_pos, order.descending))
        }
        None => None,
    };

    // Access-path selection (DESIGN.md §14): only an equality against a
    // literal or a parameter can probe an index (every other predicate,
    // LIKE included, is a scan predicate). Among these, pick the one
    // with the lowest estimated result cardinality, and only if it
    // beats a meaningful fraction of a full scan. Estimates come from
    // the O(1) distinct-key counts the indexes maintain
    // (`stats::estimated_eq_rows`), so binding stays row-data-free
    // except for these counters. They never read the compared value, so
    // a parameter gets the path its literal would.
    let mut access = AccessPath::Scan;
    let mut best = from_table.len() as f64 / 2.0;
    let equalities = || {
        preds.iter().enumerate().filter(|(_, p)| {
            p.op == CompareOp::Eq && matches!(p.rhs, PredRhs::Literal(_) | PredRhs::Param(_))
        })
    };
    for (i, pred) in equalities().filter(|(_, p)| p.lhs.slot == 0) {
        let column = bindings[0].columns[pred.lhs.col];
        if let Some(est) = stats::estimated_eq_rows(kb, &stmt.from.table, column) {
            if est < best {
                best = est;
                access = AccessPath::IndexEq { pred: i };
            }
        }
    }
    // An equality on a joined slot probes that slot's index and walks
    // the join keys back to the FROM table. It must beat every
    // FROM-side path, so it is costed only after them.
    for (i, pred) in equalities().filter(|(_, p)| p.lhs.slot != 0) {
        if let Some(est) = join_probe_estimate(kb, &bindings, &joins, pred.lhs) {
            if est < best {
                best = est;
                access = AccessPath::JoinProbe { pred: i };
            }
        }
    }

    Ok(BoundPlan {
        params: markers.len(),
        from_table: stmt.from.table.clone(),
        joins,
        preds,
        projections,
        out_cols: Arc::new(out_cols),
        distinct: stmt.distinct,
        order,
        limit: stmt.limit,
        access,
    })
}

/// The FROM rows a join probe on `probe` is estimated to yield: the
/// probe's `estimated_eq_rows` times that of each hop's existing-side key
/// column, walking `joins[slot - 1].existing` back to slot 0. `None` when
/// the probe column or a hop's existing-side key has no index.
fn join_probe_estimate(
    kb: &KnowledgeBase,
    bindings: &[Binding<'_>],
    joins: &[BoundJoin],
    probe: Bound,
) -> Option<f64> {
    let column = |b: Bound| (bindings[b.slot].table, bindings[b.slot].columns[b.col]);
    let (table, col) = column(probe);
    let mut est = stats::estimated_eq_rows(kb, table, col)?;
    let mut slot = probe.slot;
    while slot > 0 {
        let existing = joins[slot - 1].existing;
        let (table, col) = column(existing);
        est *= stats::estimated_eq_rows(kb, table, col)?;
        slot = existing.slot;
    }
    Some(est)
}

/// Executes a bound plan against the knowledge base's current rows, with
/// `params[i]` standing for the plan's parameter `i`.
pub fn execute_bound(
    kb: &KnowledgeBase,
    plan: &BoundPlan,
    params: &[Value],
) -> Result<ResultSet, KbError> {
    if params.len() != plan.params {
        return Err(KbError::Semantic(format!(
            "plan takes {} parameters, got {}",
            plan.params,
            params.len()
        )));
    }
    // Start with the FROM rows — either every row (scan) or the
    // ascending candidate positions an access path yields. Candidates
    // are a superset of the rows any output tuple starts from, in row
    // order, and every predicate is re-applied below, so both starts
    // produce byte-identical results. A probe may decline (`None` for
    // a key the index cannot answer exactly), in which case we scan.
    let slots = Slots(plan.tables().map(|t| kb.table(t)).collect::<Result<_, _>>()?);
    let passes = |tuple: &[u32], slot: usize| {
        plan.preds.iter().filter(|p| p.slot == slot).all(|p| p.holds(&slots, tuple, params))
    };
    let candidates = if kb.index_enabled() { plan.candidates(&slots, params) } else { None };
    // A tuple is `width` row positions, one per slot filled so far, and
    // `tuples` holds them back to back.
    let mut tuples: Vec<u32> = candidates.unwrap_or_else(|| (0..slots.0[0].len() as u32).collect());
    tuples.retain(|&p| passes(&[p], 0));
    let mut width = 1;

    // Apply each join with a hash join on the equality key. When the
    // incoming table carries a persistent index on the key column,
    // probe it instead of building a per-query map: both group rows by
    // raw `Value` equality in insertion order, so the output tuples are
    // identical either way. A joined tuple is kept only if the
    // predicates its new slot completes hold.
    for (j, join) in plan.joins.iter().enumerate() {
        let slot = j + 1;
        let right = slots.0[slot];
        let persistent = if kb.index_enabled() { right.index(join.incoming.col) } else { None };
        let mut built: HashMap<&Value, Vec<u32>> = HashMap::new();
        if persistent.is_none() {
            for (p, row) in right.rows.iter().enumerate() {
                let key = &row[join.incoming.col];
                if !key.is_null() {
                    built.entry(key).or_default().push(p as u32);
                }
            }
        }
        // Sized for one match per tuple, the common case of a join
        // along a foreign key.
        let mut next: Vec<u32> = Vec::with_capacity(tuples.len() / width * (width + 1));
        for tuple in tuples.chunks_exact(width) {
            let key = slots.value(tuple, join.existing);
            if key.is_null() {
                continue;
            }
            let matches = match persistent {
                Some(idx) => idx.probe_raw(key),
                None => built.get(key).map(Vec::as_slice),
            };
            for &p in matches.unwrap_or_default() {
                let start = next.len();
                next.extend_from_slice(tuple);
                next.push(p);
                if !passes(&next[start..], slot) {
                    next.truncate(start);
                }
            }
        }
        tuples = next;
        width += 1;
    }

    // Project.
    let mut rows: Vec<Vec<Value>> = tuples
        .chunks_exact(width)
        .map(|t| plan.projections.iter().map(|&b| slots.value(t, b).clone()).collect())
        .collect();

    // DISTINCT: keep each row's first occurrence.
    if plan.distinct && rows.len() > 1 {
        let mut seen: HashSet<&[Value]> = HashSet::with_capacity(rows.len());
        let mut first =
            rows.iter().map(|r| seen.insert(r.as_slice())).collect::<Vec<_>>().into_iter();
        rows.retain(|_| first.next().unwrap_or(false));
    }

    // ORDER BY (bound to a projection position at bind time).
    if let Some((key_pos, descending)) = plan.order {
        rows.sort_by(|a, b| {
            let ord = a[key_pos].total_cmp(&b[key_pos]);
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
    }

    // LIMIT.
    if let Some(n) = plan.limit {
        rows.truncate(n);
    }

    Ok(ResultSet { columns: Arc::clone(&plan.out_cols), rows })
}

#[derive(Debug)]
enum PredRhs {
    Literal(Value),
    /// The plan's `i`-th parameter, supplied at execution.
    Param(usize),
    Column(Bound),
    /// Pre-lowered CONTAINS needle (text literal predicates only).
    Needle(String),
}

impl PredRhs {
    /// The value a literal or parameter compares against.
    fn value<'v>(&'v self, params: &'v [Value]) -> Option<&'v Value> {
        match self {
            PredRhs::Literal(v) => Some(v),
            PredRhs::Param(i) => Some(&params[*i]),
            _ => None,
        }
    }
}

fn compare(lhs: &Value, op: CompareOp, rhs: &Value) -> bool {
    use std::cmp::Ordering::*;
    if lhs.is_null() || rhs.is_null() {
        return false;
    }
    match op {
        CompareOp::Eq => lhs.sql_eq(rhs),
        CompareOp::Ne => !lhs.sql_eq(rhs),
        CompareOp::Lt => lhs.total_cmp(rhs) == Less,
        CompareOp::Le => lhs.total_cmp(rhs) != Greater,
        CompareOp::Gt => lhs.total_cmp(rhs) == Greater,
        CompareOp::Ge => lhs.total_cmp(rhs) != Less,
        CompareOp::Like => match (lhs.as_text(), rhs.as_text()) {
            (Some(s), Some(pat)) => like_match(s, pat),
            _ => false,
        },
        CompareOp::Contains => match (lhs.as_text(), rhs.as_text()) {
            (Some(s), Some(needle)) => contains_lowered(s, &needle.to_lowercase()),
            _ => false,
        },
    }
}

/// Case-insensitive substring test against a pre-lowered needle. ASCII
/// text (the overwhelmingly common case in this KB) is scanned without
/// allocating; anything else falls back to a full lowercase pass.
fn contains_lowered(haystack: &str, needle_lower: &str) -> bool {
    if haystack.is_ascii() && needle_lower.is_ascii() {
        let h = haystack.as_bytes();
        let n = needle_lower.as_bytes();
        n.is_empty() || h.windows(n.len()).any(|w| w.eq_ignore_ascii_case(n))
    } else {
        haystack.to_lowercase().contains(needle_lower)
    }
}

/// SQL LIKE with `%` (any sequence) and `_` (any single char) wildcards.
///
/// Iterative two-pointer matcher: on a mismatch it backtracks to the most
/// recent `%` and lets it swallow one more character. Worst case is
/// O(|s|·|pattern|) — the naive recursive formulation is exponential on
/// patterns like `%a%a%a%b`, which generated traffic can produce.
fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0, 0);
    // Position after the last `%`, and the text index it currently covers.
    let mut star: Option<(usize, usize)> = None;
    while si < s.len() {
        match p.get(pi) {
            Some('%') => {
                star = Some((pi + 1, si));
                pi += 1;
            }
            Some('_') => {
                si += 1;
                pi += 1;
            }
            Some(&c) if c == s[si] => {
                si += 1;
                pi += 1;
            }
            _ => match star {
                Some((star_pi, star_si)) => {
                    // Extend the last `%` by one character and retry.
                    star = Some((star_pi, star_si + 1));
                    pi = star_pi;
                    si = star_si + 1;
                }
                None => return false,
            },
        }
    }
    // Only trailing `%`s may remain unconsumed.
    while p.get(pi) == Some(&'%') {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, TableSchema};

    fn medical_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("drug")
                .column("drug_id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("drug_id"),
        )
        .unwrap();
        kb.create_table(
            TableSchema::new("precautions")
                .column("prec_id", ColumnType::Int)
                .column("drug_id", ColumnType::Int)
                .column("description", ColumnType::Text)
                .primary_key("prec_id")
                .foreign_key("drug_id", "drug", "drug_id"),
        )
        .unwrap();
        for (id, name) in [(1, "Aspirin"), (2, "Ibuprofen"), (3, "Tazarotene")] {
            kb.insert("drug", vec![Value::Int(id), Value::text(name)]).unwrap();
        }
        for (id, drug, desc) in [
            (1, 1, "avoid with bleeding disorders"),
            (2, 2, "take with food"),
            (3, 2, "avoid in third trimester"),
        ] {
            kb.insert("precautions", vec![Value::Int(id), Value::Int(drug), Value::text(desc)])
                .unwrap();
        }
        kb
    }

    #[test]
    fn join_with_filter_matches_paper_template() {
        let kb = medical_kb();
        let rs = kb
            .query(
                "SELECT precautions.description FROM precautions \
                 INNER JOIN drug ON precautions.drug_id = drug.drug_id \
                 WHERE drug.name = 'Ibuprofen'",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(*rs.columns, vec!["description"]);
    }

    #[test]
    fn aliases_work() {
        let kb = medical_kb();
        let rs = kb
            .query(
                "SELECT p.description FROM precautions p \
                 INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.name = 'Aspirin'",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn unqualified_unambiguous_columns_resolve() {
        let kb = medical_kb();
        let rs = kb
            .query(
                "SELECT description FROM precautions \
                 INNER JOIN drug ON precautions.drug_id = drug.drug_id WHERE name = 'Aspirin'",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn ambiguous_column_errors() {
        let kb = medical_kb();
        let err = kb
            .query(
                "SELECT drug_id FROM precautions \
                 INNER JOIN drug ON precautions.drug_id = drug.drug_id",
            )
            .unwrap_err();
        assert!(matches!(err, KbError::Semantic(_)));
    }

    #[test]
    fn self_join_requires_aliases() {
        let kb = medical_kb();
        let err = kb
            .query("SELECT * FROM drug INNER JOIN drug ON drug.drug_id = drug.drug_id")
            .unwrap_err();
        assert!(matches!(err, KbError::Semantic(_)));
        let rs = kb
            .query("SELECT a.name FROM drug a INNER JOIN drug b ON a.drug_id = b.drug_id")
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn self_join_projection_qualifies_colliding_columns() {
        // Regression: `SELECT a.name, b.name` used to drop both
        // qualifiers, yielding two indistinguishable `name` columns.
        let kb = medical_kb();
        let rs = kb
            .query("SELECT a.name, b.name FROM drug a INNER JOIN drug b ON a.drug_id = b.drug_id")
            .unwrap();
        assert_eq!(*rs.columns, vec!["a.name", "b.name"]);
        assert_eq!(rs.rows.len(), 3);
        // A name projected from a single binding stays unqualified even
        // when another (differently named) column rides along.
        let rs = kb
            .query(
                "SELECT d.name, p.description FROM drug d \
                 INNER JOIN precautions p ON d.drug_id = p.drug_id",
            )
            .unwrap();
        assert_eq!(*rs.columns, vec!["name", "description"]);
    }

    #[test]
    fn bound_plan_is_reusable_across_inserts() {
        let mut kb = medical_kb();
        let stmt = super::super::parser::parse("SELECT name FROM drug WHERE drug_id >= 2").unwrap();
        let plan = bind(&kb, &stmt, &[]).unwrap();
        assert_eq!(execute_bound(&kb, &plan, &[]).unwrap().rows.len(), 2);
        kb.insert("drug", vec![Value::Int(9), Value::text("Warfarin")]).unwrap();
        // The plan depends only on schema, so it sees the new row.
        assert_eq!(execute_bound(&kb, &plan, &[]).unwrap().rows.len(), 3);
    }

    #[test]
    fn prepare_binds_without_executing() {
        let kb = medical_kb();
        let plan = kb
            .prepare(
                "SELECT a.name, b.name FROM drug a \
                 INNER JOIN drug b ON a.drug_id = b.drug_id WHERE a.name = 'Aspirin'",
            )
            .unwrap();
        assert_eq!(plan.columns(), ["a.name", "b.name"]);
        assert_eq!(plan.tables().collect::<Vec<_>>(), ["drug", "drug"]);
        assert_eq!(plan.predicate_count(), 1);
        assert!(kb.prepare("SELECT nope FROM drug").is_err());
        assert!(kb.prepare("SELECT name FROM nowhere").is_err());
    }

    #[test]
    fn star_projection_qualifies_when_joined() {
        let kb = medical_kb();
        let rs = kb.query("SELECT * FROM drug").unwrap();
        assert_eq!(*rs.columns, vec!["drug_id", "name"]);
        let rs = kb
            .query("SELECT * FROM precautions p INNER JOIN drug d ON p.drug_id = d.drug_id")
            .unwrap();
        assert!(rs.columns.contains(&"p.description".to_string()));
        assert!(rs.columns.contains(&"d.name".to_string()));
    }

    #[test]
    fn distinct_order_limit() {
        let kb = medical_kb();
        let rs = kb
            .query(
                "SELECT DISTINCT d.name FROM drug d \
                 INNER JOIN precautions p ON d.drug_id = p.drug_id \
                 ORDER BY name DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::text("Ibuprofen")]]);
    }

    #[test]
    fn order_by_must_be_projected() {
        let kb = medical_kb();
        assert!(kb.query("SELECT name FROM drug ORDER BY drug_id").is_err());
        assert!(kb.query("SELECT name FROM drug ORDER BY name").is_ok());
    }

    #[test]
    fn like_and_contains() {
        let kb = medical_kb();
        let rs = kb.query("SELECT name FROM drug WHERE name LIKE 'Asp%'").unwrap();
        assert_eq!(rs.rows.len(), 1);
        let rs = kb.query("SELECT name FROM drug WHERE name CONTAINS 'IBU'").unwrap();
        assert_eq!(rs.rows.len(), 1, "CONTAINS is case-insensitive");
        let rs = kb.query("SELECT name FROM drug WHERE name LIKE '%e_'").unwrap();
        // "Tazarotene" ends 'n','e' — pattern %e_ matches ...e + one char.
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut kb = medical_kb();
        kb.insert("precautions", vec![Value::Int(4), Value::Null, Value::text("orphan")]).unwrap();
        let rs = kb
            .query(
                "SELECT p.description FROM precautions p \
                 INNER JOIN drug d ON p.drug_id = d.drug_id",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3, "NULL drug_id must not join");
    }

    #[test]
    fn comparison_operators_on_ints() {
        let kb = medical_kb();
        let rs = kb.query("SELECT name FROM drug WHERE drug_id >= 2").unwrap();
        assert_eq!(rs.rows.len(), 2);
        let rs = kb.query("SELECT name FROM drug WHERE drug_id != 2").unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn empty_result_is_ok() {
        let kb = medical_kb();
        let rs = kb.query("SELECT name FROM drug WHERE name = 'Nothing'").unwrap();
        assert!(rs.rows.is_empty());
        assert_eq!(rs.single_column().unwrap().len(), 0);
    }

    #[test]
    fn like_match_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "a%c"));
        assert!(like_match("ac", "a%c"));
        assert!(!like_match("ab", "a%c"));
        assert!(like_match("a%b", "a%b")); // literal interpretation via %
        assert!(like_match("abc", "%%%"));
        assert!(like_match("abc", "%b%"));
        assert!(like_match("abc", "_%_"));
        assert!(!like_match("ab", "_%_%_"));
        assert!(like_match("aaab", "%a_b"));
        assert!(!like_match("abc", "%d%"));
    }

    #[test]
    fn like_match_pathological_pattern_terminates_fast() {
        // The old recursive matcher was exponential on this shape: every
        // `%` forked over all remaining suffixes. 2^40+ steps — hours.
        // The two-pointer matcher is bounded by |s|·|pattern| steps.
        let s = "a".repeat(400);
        let pattern = format!("{}b", "%a".repeat(20));
        let start = std::time::Instant::now();
        assert!(!like_match(&s, &pattern));
        assert!(like_match(&format!("{s}b"), &pattern));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "pathological LIKE took {:?} — backtracking blow-up regressed",
            start.elapsed()
        );
    }

    #[test]
    fn like_match_agrees_with_recursive_reference() {
        // Reference implementation: the old (correct but exponential)
        // recursive matcher, safe at these tiny sizes.
        fn reference(s: &[char], p: &[char]) -> bool {
            match p.first() {
                None => s.is_empty(),
                Some('%') => (0..=s.len()).any(|k| reference(&s[k..], &p[1..])),
                Some('_') => !s.is_empty() && reference(&s[1..], &p[1..]),
                Some(c) => s.first() == Some(c) && reference(&s[1..], &p[1..]),
            }
        }
        let alphabet = ['a', 'b', '%', '_'];
        // Exhaustive over all strings/patterns of length ≤ 3 over {a,b}
        // × patterns of length ≤ 3 over {a,b,%,_}: 2^0..3 × 4^0..3.
        let mut strings = vec![String::new()];
        for _ in 0..3 {
            let next: Vec<String> = strings
                .iter()
                .flat_map(|s| ['a', 'b'].iter().map(move |c| format!("{s}{c}")))
                .collect();
            strings.extend(next);
        }
        let mut patterns = vec![String::new()];
        for _ in 0..3 {
            let next: Vec<String> = patterns
                .iter()
                .flat_map(|p| alphabet.iter().map(move |c| format!("{p}{c}")))
                .collect();
            patterns.extend(next);
        }
        for s in &strings {
            let sc: Vec<char> = s.chars().collect();
            for p in &patterns {
                let pc: Vec<char> = p.chars().collect();
                assert_eq!(
                    like_match(s, p),
                    reference(&sc, &pc),
                    "disagreement on s={s:?} pattern={p:?}"
                );
            }
        }
    }

    #[test]
    fn planner_picks_index_paths_and_results_match_scan() {
        let mut kb = medical_kb();
        for i in 4..200 {
            kb.insert("drug", vec![Value::Int(i), Value::text(format!("Generic{i}"))]).unwrap();
        }
        let mut scan = kb.clone();
        scan.set_index_enabled(false);
        assert!(
            !kb.prepare("SELECT name FROM drug WHERE drug_id = 2").unwrap().uses_index(),
            "no index yet — plan must scan"
        );
        kb.create_index("drug", "drug_id").unwrap();
        kb.create_index("drug", "name").unwrap();
        scan.create_index("drug", "drug_id").unwrap();
        scan.create_index("drug", "name").unwrap();

        let eq = "SELECT name FROM drug WHERE drug_id = 2";
        let plan = kb.prepare(eq).unwrap();
        assert!(plan.uses_index());
        assert_eq!(plan.access_label(), "index_eq");
        assert_eq!(kb.query(eq).unwrap(), scan.query(eq).unwrap());
        assert_eq!(kb.query(eq).unwrap().rows, vec![vec![Value::text("Ibuprofen")]]);

        let name = "SELECT drug_id FROM drug WHERE name = 'Aspirin'";
        assert_eq!(kb.prepare(name).unwrap().access_label(), "index_eq");
        assert_eq!(kb.query(name).unwrap(), scan.query(name).unwrap());
        assert_eq!(kb.query(name).unwrap().rows, vec![vec![Value::Int(1)]]);

        // LIKE is a scan predicate, anchored or not, even over an
        // indexed column.
        for like in [
            "SELECT name FROM drug WHERE name LIKE 'Asp%'",
            "SELECT name FROM drug WHERE name LIKE '%zol'",
        ] {
            assert_eq!(kb.prepare(like).unwrap().access_label(), "scan", "{like}");
            assert_eq!(kb.query(like).unwrap(), scan.query(like).unwrap());
        }
        assert_eq!(kb.query("SELECT name FROM drug WHERE name LIKE 'Asp%'").unwrap().rows.len(), 1);

        // Joins probe the persistent hash index; results stay identical.
        let join = "SELECT p.description FROM precautions p \
                    INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.drug_id <= 5";
        assert_eq!(kb.query(join).unwrap(), scan.query(join).unwrap());
    }

    /// The paper's template shape: the key-concept filter sits on the
    /// joined `drug` table.
    const PAPER_TEMPLATE: &str = "SELECT p.description FROM precautions p \
                                  INNER JOIN drug d ON p.drug_id = d.drug_id \
                                  WHERE d.name = 'Ibuprofen'";

    /// `medical_kb` plus 96 generic drugs with one precaution each, so an
    /// index probe beats a scan.
    fn wide_medical_kb() -> KnowledgeBase {
        let mut kb = medical_kb();
        for i in 4..100 {
            kb.insert("drug", vec![Value::Int(i), Value::text(format!("Generic{i}"))]).unwrap();
            kb.insert("precautions", vec![Value::Int(i), Value::Int(i), Value::text("generic")])
                .unwrap();
        }
        kb
    }

    #[test]
    fn paper_join_template_binds_join_probe() {
        let mut kb = wide_medical_kb();
        let mut scan = kb.clone();
        scan.set_index_enabled(false);
        assert_eq!(kb.prepare(PAPER_TEMPLATE).unwrap().access_label(), "scan", "no indexes yet");
        kb.auto_index();
        let plan = kb.prepare(PAPER_TEMPLATE).unwrap();
        assert_eq!(plan.access_label(), "join_probe");
        assert!(plan.uses_index());
        assert_eq!(kb.query(PAPER_TEMPLATE).unwrap(), scan.query(PAPER_TEMPLATE).unwrap());
        assert_eq!(
            kb.query(PAPER_TEMPLATE).unwrap().rows,
            vec![
                vec![Value::text("take with food")],
                vec![Value::text("avoid in third trimester")]
            ]
        );
        // A FROM-side equality at least as selective keeps its own path.
        let both = format!("{PAPER_TEMPLATE} AND p.prec_id = 2");
        assert_eq!(kb.prepare(&both).unwrap().access_label(), "index_eq");
        assert_eq!(kb.query(&both).unwrap(), scan.query(&both).unwrap());
    }

    #[test]
    fn markers_bind_as_parameters_on_the_literal_access_path() {
        let mut kb = wide_medical_kb();
        kb.auto_index();
        let template = PAPER_TEMPLATE.replace("'Ibuprofen'", "'<@Drug>'");
        let plan = kb.prepare_with(&template, &["<@Drug>"]).unwrap();
        assert_eq!(plan.param_count(), 1);
        assert_eq!(plan.access_label(), kb.prepare(PAPER_TEMPLATE).unwrap().access_label());
        for name in ["Ibuprofen", "Aspirin", "Nothing", "O'Neil"] {
            let literal = PAPER_TEMPLATE.replace("Ibuprofen", &name.replace('\'', "''"));
            assert_eq!(kb.execute(&plan, &[Value::text(name)]), kb.query(&literal), "{name}");
        }
        // Without markers the same text is an ordinary constant.
        assert!(kb.query(&template).unwrap().rows.is_empty());
        assert!(matches!(kb.execute(&plan, &[]), Err(KbError::Semantic(_))));
    }

    #[test]
    fn a_marker_inside_a_longer_literal_is_a_prepare_error() {
        let kb = medical_kb();
        let sql = "SELECT name FROM drug WHERE name = 'x<@Drug>'";
        assert!(matches!(kb.prepare_with(sql, &["<@Drug>"]), Err(KbError::Semantic(_))));
        assert!(kb.prepare(sql).is_ok(), "no markers, no parameters");
        // A parameter under LIKE binds, and the predicate scans.
        let mut kb = medical_kb();
        kb.create_index("drug", "name").unwrap();
        let like = kb.prepare_with("SELECT name FROM drug WHERE name LIKE '<@P>'", &["<@P>"]);
        let like = like.unwrap();
        assert_eq!(like.access_label(), "scan");
        assert_eq!(kb.execute(&like, &[Value::text("Asp%")]).unwrap().rows.len(), 1);
    }

    #[test]
    fn join_probe_declines_to_scan_without_a_hop_index() {
        let mut kb = wide_medical_kb();
        // The probe column is indexed, but the hop's existing-side key
        // (precautions.drug_id) is not: the walk cannot map positions
        // back to the FROM table, so the plan scans.
        kb.create_index("drug", "name").unwrap();
        kb.create_index("drug", "drug_id").unwrap();
        assert_eq!(kb.prepare(PAPER_TEMPLATE).unwrap().access_label(), "scan");
        kb.create_index("precautions", "drug_id").unwrap();
        assert_eq!(kb.prepare(PAPER_TEMPLATE).unwrap().access_label(), "join_probe");
    }

    #[test]
    fn predicates_run_once_their_slots_are_bound() {
        let kb = medical_kb();
        // Column-column predicate across both slots, plus one per slot.
        let sql = "SELECT p.description FROM precautions p \
                   INNER JOIN drug d ON p.drug_id = d.drug_id \
                   WHERE p.prec_id >= d.drug_id AND d.name != 'Aspirin' AND p.prec_id < 3";
        let plan = kb.prepare(sql).unwrap();
        assert_eq!(plan.preds.iter().map(|p| p.slot).collect::<Vec<_>>(), [1, 1, 0]);
        assert_eq!(kb.query(sql).unwrap().rows, vec![vec![Value::text("take with food")]]);
    }

    #[test]
    fn disabled_indexes_fall_back_to_scan_with_identical_results() {
        let mut kb = medical_kb();
        kb.create_index("drug", "drug_id").unwrap();
        let sql = "SELECT name FROM drug WHERE drug_id = 3";
        let with_index = kb.query(sql).unwrap();
        kb.set_index_enabled(false);
        assert_eq!(kb.query(sql).unwrap(), with_index);
        kb.set_index_enabled(true);
        assert_eq!(kb.query(sql).unwrap(), with_index);
    }

    #[test]
    fn low_selectivity_index_loses_to_scan() {
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("t")
                .column("id", ColumnType::Int)
                .column("flag", ColumnType::Int)
                .primary_key("id"),
        )
        .unwrap();
        for i in 0..50 {
            kb.insert("t", vec![Value::Int(i), Value::Int(i % 2)]).unwrap();
        }
        kb.create_index("t", "flag").unwrap();
        // Two distinct values over 50 rows: estimated 25 ≥ rows/2, so the
        // planner keeps the scan.
        let plan = kb.prepare("SELECT id FROM t WHERE flag = 1").unwrap();
        assert_eq!(plan.access_label(), "scan");
        assert_eq!(kb.query("SELECT id FROM t WHERE flag = 1").unwrap().rows.len(), 25);
    }

    #[test]
    fn contains_lowered_matches_unicode_and_ascii() {
        assert!(contains_lowered("Ibuprofen", "ibu"));
        assert!(contains_lowered("IBUPROFEN", "profen"));
        assert!(!contains_lowered("Aspirin", "ibu"));
        assert!(contains_lowered("anything", ""));
        assert!(!contains_lowered("ab", "abc"));
        // Non-ASCII falls back to full lowercasing.
        assert!(contains_lowered("Fiebersaft für Kinder", "für"));
        assert!(contains_lowered("ÜBERDOSIS", "überdosis"));
    }
}
