//! Page layout arithmetic: deriving the CF-tree's fan-outs from the page size.
//!
//! Section 4.2 of the paper: *"a nonleaf node contains at most B entries …
//! a leaf node contains at most L entries … P can be varied for performance
//! tuning"* and *"B and L are determined by P"*. A CF entry for a cluster of
//! `d`-dimensional points stores the triple `(N, LS, SS)`; interior entries
//! additionally store a child pointer; leaf nodes store the `prev`/`next`
//! chain pointers once per node.

/// Size in bytes of one machine word / pointer in the simulated layout.
const WORD: usize = 8;

/// Describes how CF entries are packed onto fixed-size pages.
///
/// All sizes are in bytes. The layout mirrors the paper's cost model:
///
/// * a CF triple is `N` (one word) + `LS` (`d` floats) + `SS` (one float),
/// * an interior entry adds one child pointer,
/// * a leaf node reserves two words for the `prev`/`next` leaf chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLayout {
    /// Page size `P` in bytes.
    pub page_bytes: usize,
    /// Data dimensionality `d`.
    pub dim: usize,
}

impl PageLayout {
    /// Creates a layout for pages of `page_bytes` holding `dim`-dimensional
    /// CF entries.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or if the page is too small to hold even two
    /// entries (a fan-out below 2 cannot form a tree).
    #[must_use]
    pub fn new(page_bytes: usize, dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        let layout = Self { page_bytes, dim };
        assert!(
            layout.branching_factor() >= 2 && layout.leaf_capacity() >= 2,
            "page of {page_bytes} bytes holds fewer than 2 entries of dimension {dim}; \
             increase the page size"
        );
        layout
    }

    /// Bytes occupied by one CF triple `(N, LS, SS)`.
    #[must_use]
    pub fn cf_entry_bytes(&self) -> usize {
        WORD + self.dim * WORD + WORD
    }

    /// Bytes occupied by one interior (nonleaf) entry: CF triple + child id.
    #[must_use]
    pub fn interior_entry_bytes(&self) -> usize {
        self.cf_entry_bytes() + WORD
    }

    /// The paper's `B`: maximum number of `(CF, child)` entries in a nonleaf
    /// node occupying one page.
    #[must_use]
    pub fn branching_factor(&self) -> usize {
        self.page_bytes / self.interior_entry_bytes()
    }

    /// The paper's `L`: maximum number of CF entries in a leaf node occupying
    /// one page (two words reserved for the leaf chain).
    #[must_use]
    pub fn leaf_capacity(&self) -> usize {
        (self.page_bytes.saturating_sub(2 * WORD)) / self.cf_entry_bytes()
    }

    /// Physical bytes of one encoded page slot able to hold either node
    /// flavour, given how many 8-byte words one CF entry serializes to
    /// (the stored mean/SSE form, `2d + 3` words, is wider than the
    /// paper's `(N, LS, SS)` triple this cost model counts).
    ///
    /// The slot is the page header plus the larger of a full leaf
    /// (`L` CF rows) and a full interior node (`B` rows of CF + child).
    #[must_use]
    pub fn physical_page_bytes(&self, cf_entry_words: usize) -> usize {
        let leaf_words = self.leaf_capacity() * cf_entry_words;
        let interior_words = self.branching_factor() * (cf_entry_words + 1);
        crate::page::PAGE_HEADER_BYTES + WORD * leaf_words.max(interior_words)
    }

    /// Number of whole pages required to hold `nodes` tree nodes (one node
    /// per page, as in the paper's cost model).
    #[must_use]
    pub fn pages_for_nodes(&self, nodes: usize) -> usize {
        nodes
    }

    /// How many pages a memory budget of `memory_bytes` affords.
    #[must_use]
    pub fn pages_in_budget(&self, memory_bytes: usize) -> usize {
        memory_bytes / self.page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_layout_2d() {
        // Paper defaults: P = 1024 bytes, d = 2.
        let l = PageLayout::new(1024, 2);
        // CF entry: 8 (N) + 16 (LS) + 8 (SS) = 32 bytes.
        assert_eq!(l.cf_entry_bytes(), 32);
        assert_eq!(l.interior_entry_bytes(), 40);
        assert_eq!(l.branching_factor(), 25);
        // (1024 - 16) / 32 = 31.
        assert_eq!(l.leaf_capacity(), 31);
    }

    #[test]
    fn high_dimensional_layout_shrinks_fanout() {
        let l = PageLayout::new(4096, 64);
        // CF entry: 8 + 512 + 8 = 528; interior 536.
        assert_eq!(l.branching_factor(), 4096 / 536);
        assert_eq!(l.leaf_capacity(), (4096 - 16) / 528);
        assert!(l.branching_factor() >= 2);
    }

    #[test]
    fn budget_page_count() {
        let l = PageLayout::new(1024, 2);
        // Paper default memory M = 80 KB -> 80 pages.
        assert_eq!(l.pages_in_budget(80 * 1024), 80);
        assert_eq!(l.pages_for_nodes(17), 17);
    }

    #[test]
    #[should_panic(expected = "fewer than 2 entries")]
    fn tiny_page_rejected() {
        let _ = PageLayout::new(64, 16);
    }

    #[test]
    #[should_panic(expected = "dimensionality must be positive")]
    fn zero_dim_rejected() {
        let _ = PageLayout::new(1024, 0);
    }

    #[test]
    fn physical_page_holds_a_full_node_of_either_kind() {
        use crate::page::PAGE_HEADER_BYTES;
        for (page, dim) in [(1024, 2), (512, 2), (4096, 64), (2048, 16)] {
            let l = PageLayout::new(page, dim);
            // Stable CF backend: 2d + 3 words per entry.
            for cf_words in [dim + 2, 2 * dim + 3] {
                let phys = l.physical_page_bytes(cf_words);
                let leaf_payload = l.leaf_capacity() * cf_words * WORD;
                let interior_payload = l.branching_factor() * (cf_words + 1) * WORD;
                assert!(phys >= PAGE_HEADER_BYTES + leaf_payload);
                assert!(phys >= PAGE_HEADER_BYTES + interior_payload);
            }
        }
    }

    #[test]
    fn larger_page_larger_fanout() {
        let small = PageLayout::new(512, 2);
        let big = PageLayout::new(4096, 2);
        assert!(big.branching_factor() > small.branching_factor());
        assert!(big.leaf_capacity() > small.leaf_capacity());
    }
}
