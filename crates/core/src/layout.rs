//! Checkpoint data layout: which fields exist and how many bytes each rank
//! contributes to each.
//!
//! NekCEM checkpoints six field arrays (Ex, Ey, Ez, Hx, Hy, Hz); other
//! applications have their own lists. The layout is the single source of
//! truth for every offset computation: a rank's in-memory payload packs its
//! field blocks back to back, and an output file packs, after the master
//! header, each field's blocks across its covered rank range in rank order
//! ("sorted mostly in the order of fields" — §III-B of the paper).

/// Per-rank byte counts for one field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldSizes {
    /// Every rank contributes the same number of bytes.
    Uniform(u64),
    /// Per-rank byte counts (length must equal the rank count).
    PerRank(Vec<u64>),
}

/// One checkpointed field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field name (stored in the file header; e.g. `"Ex"`).
    pub name: String,
    /// Per-rank sizes.
    pub sizes: FieldSizes,
}

/// The complete layout of one checkpoint step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataLayout {
    nranks: u32,
    fields: Vec<FieldSpec>,
}

impl DataLayout {
    /// A layout where every rank contributes the same bytes per field:
    /// `fields` is a list of `(name, bytes_per_rank)`.
    pub fn uniform(nranks: u32, fields: &[(&str, u64)]) -> Self {
        assert!(nranks > 0, "need at least one rank");
        DataLayout {
            nranks,
            fields: fields
                .iter()
                .map(|&(name, sz)| FieldSpec {
                    name: name.to_string(),
                    sizes: FieldSizes::Uniform(sz),
                })
                .collect(),
        }
    }

    /// A fully general layout.
    pub fn new(nranks: u32, fields: Vec<FieldSpec>) -> Self {
        assert!(nranks > 0, "need at least one rank");
        for f in &fields {
            if let FieldSizes::PerRank(v) = &f.sizes {
                assert_eq!(
                    v.len(),
                    nranks as usize,
                    "field {}: per-rank size list must have nranks entries",
                    f.name
                );
            }
        }
        DataLayout { nranks, fields }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> u32 {
        self.nranks
    }

    /// The fields, in file order.
    pub(crate) fn fields(&self) -> &[FieldSpec] {
        &self.fields
    }

    /// Number of fields.
    pub fn nfields(&self) -> usize {
        self.fields.len()
    }

    /// Bytes rank `rank` contributes to field `field`.
    pub fn field_bytes(&self, rank: u32, field: usize) -> u64 {
        debug_assert!(rank < self.nranks);
        match &self.fields[field].sizes {
            FieldSizes::Uniform(sz) => *sz,
            FieldSizes::PerRank(v) => v[rank as usize],
        }
    }

    /// Total payload bytes of `rank` (all fields).
    pub fn rank_payload_bytes(&self, rank: u32) -> u64 {
        (0..self.nfields()).map(|f| self.field_bytes(rank, f)).sum()
    }

    /// Offset of `field`'s block inside `rank`'s packed payload.
    pub(crate) fn payload_field_off(&self, rank: u32, field: usize) -> u64 {
        (0..field).map(|f| self.field_bytes(rank, f)).sum()
    }

    /// Total bytes of `field` across ranks `r0..r1`.
    pub(crate) fn field_total(&self, field: usize, r0: u32, r1: u32) -> u64 {
        match &self.fields[field].sizes {
            FieldSizes::Uniform(sz) => sz * u64::from(r1 - r0),
            FieldSizes::PerRank(v) => v[r0 as usize..r1 as usize].iter().sum(),
        }
    }

    /// Offset of `rank`'s block within `field`'s data region of a file
    /// covering ranks `r0..r1` (i.e. the prefix sum over `r0..rank`).
    pub(crate) fn field_rank_off(&self, field: usize, r0: u32, rank: u32) -> u64 {
        self.field_total(field, r0, rank)
    }

    /// Total data bytes (all fields) across ranks `r0..r1`.
    pub fn data_total(&self, r0: u32, r1: u32) -> u64 {
        (0..self.nfields())
            .map(|f| self.field_total(f, r0, r1))
            .sum()
    }

    /// Total checkpoint bytes across all ranks (excluding headers).
    pub fn total_bytes(&self) -> u64 {
        self.data_total(0, self.nranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed() -> DataLayout {
        DataLayout::new(
            3,
            vec![
                FieldSpec {
                    name: "a".into(),
                    sizes: FieldSizes::Uniform(10),
                },
                FieldSpec {
                    name: "b".into(),
                    sizes: FieldSizes::PerRank(vec![1, 2, 3]),
                },
            ],
        )
    }

    #[test]
    fn uniform_layout_sizes() {
        let l = DataLayout::uniform(4, &[("Ex", 100), ("Ey", 50)]);
        assert_eq!(l.nranks(), 4);
        assert_eq!(l.nfields(), 2);
        assert_eq!(l.field_bytes(2, 0), 100);
        assert_eq!(l.rank_payload_bytes(0), 150);
        assert_eq!(l.payload_field_off(0, 1), 100);
        assert_eq!(l.field_total(1, 1, 3), 100);
        assert_eq!(l.total_bytes(), 600);
    }

    #[test]
    fn per_rank_sizes() {
        let l = mixed();
        assert_eq!(l.field_bytes(0, 1), 1);
        assert_eq!(l.field_bytes(2, 1), 3);
        assert_eq!(l.rank_payload_bytes(2), 13);
        assert_eq!(l.field_total(1, 0, 3), 6);
        assert_eq!(l.field_rank_off(1, 0, 2), 3);
        assert_eq!(l.field_rank_off(1, 1, 2), 2);
        assert_eq!(l.data_total(0, 3), 36);
    }

    #[test]
    #[should_panic(expected = "per-rank size list")]
    fn wrong_per_rank_len_panics() {
        DataLayout::new(
            2,
            vec![FieldSpec {
                name: "x".into(),
                sizes: FieldSizes::PerRank(vec![1]),
            }],
        );
    }

    #[test]
    fn zero_sized_fields_are_fine() {
        let l = DataLayout::uniform(2, &[("empty", 0), ("x", 5)]);
        assert_eq!(l.rank_payload_bytes(0), 5);
        assert_eq!(l.payload_field_off(0, 1), 0);
        assert_eq!(l.total_bytes(), 10);
    }
}
