//! Largest-rectangle extraction on a binary LUT (Algorithm 1).
//!
//! Given a binary LUT where `true` marks acceptable (flat / low-sigma)
//! entries, the tuning method needs the largest all-true axis-aligned
//! rectangle, preferring rectangles found "as close as possible to the
//! origin" — which Algorithm 1 achieves by scanning lower-left corners in
//! ascending order and only replacing the best rectangle on a *strictly*
//! larger area.
//!
//! Two implementations are provided:
//!
//! * [`largest_rectangle_bruteforce`] — a faithful port of the paper's
//!   Algorithm 1, O(N²M²) rectangle candidates with an O(NM) all-true scan
//!   each,
//! * [`largest_rectangle`] — the same scan order and tie-breaking with an
//!   O(1) all-true check via a summed-area table.
//!
//! The two are property-tested equivalent; the benches quantify the gap.

/// An inclusive rectangle of LUT indices: rows are slew indices, columns are
/// load indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// First included row (slew index).
    pub row_lo: usize,
    /// Last included row.
    pub row_hi: usize,
    /// First included column (load index).
    pub col_lo: usize,
    /// Last included column.
    pub col_hi: usize,
}

impl Rect {
    /// Number of entries covered.
    pub fn area(&self) -> usize {
        (self.row_hi - self.row_lo + 1) * (self.col_hi - self.col_lo + 1)
    }

    /// Whether the rectangle contains the given cell.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        row >= self.row_lo && row <= self.row_hi && col >= self.col_lo && col <= self.col_hi
    }
}

/// Faithful port of the paper's Algorithm 1 (quadruple loop, strict-greater
/// area update, explicit all-true scan). Returns `None` when the table has
/// no `true` entry.
pub fn largest_rectangle_bruteforce(bin: &[Vec<bool>]) -> Option<Rect> {
    let rows = bin.len();
    let cols = bin.first().map_or(0, Vec::len);
    let mut best: Option<Rect> = None;
    let mut best_area = 0usize;
    for ll_col in 0..cols {
        for ll_row in 0..rows {
            for ur_col in ll_col..cols {
                for ur_row in ll_row..rows {
                    let r = Rect {
                        row_lo: ll_row,
                        row_hi: ur_row,
                        col_lo: ll_col,
                        col_hi: ur_col,
                    };
                    if r.area() > best_area && all_true(bin, &r) {
                        best_area = r.area();
                        best = Some(r);
                    }
                }
            }
        }
    }
    best
}

fn all_true(bin: &[Vec<bool>], r: &Rect) -> bool {
    (r.row_lo..=r.row_hi).all(|i| (r.col_lo..=r.col_hi).all(|j| bin[i][j]))
}

/// Same result as [`largest_rectangle_bruteforce`] — identical scan order
/// and strict-greater tie-breaking — using a summed-area table for O(1)
/// all-true checks.
///
/// # Example
///
/// ```
/// use varitune_core::largest_rectangle;
///
/// // A flat region near the origin with a noisy far corner.
/// let accept = vec![
///     vec![true,  true,  false],
///     vec![true,  true,  false],
///     vec![false, false, false],
/// ];
/// let r = largest_rectangle(&accept).expect("has a true entry");
/// assert_eq!(r.area(), 4);
/// assert!(r.contains(0, 0));
/// ```
pub fn largest_rectangle(bin: &[Vec<bool>]) -> Option<Rect> {
    let rows = bin.len();
    let cols = bin.first().map_or(0, Vec::len);
    if rows == 0 || cols == 0 {
        return None;
    }
    // sat[i+1][j+1] = number of true cells in bin[0..=i][0..=j].
    let mut sat = vec![vec![0u32; cols + 1]; rows + 1];
    for i in 0..rows {
        for j in 0..cols {
            sat[i + 1][j + 1] = sat[i][j + 1] + sat[i + 1][j] - sat[i][j] + u32::from(bin[i][j]);
        }
    }
    let count = |r: &Rect| {
        sat[r.row_hi + 1][r.col_hi + 1] + sat[r.row_lo][r.col_lo]
            - sat[r.row_lo][r.col_hi + 1]
            - sat[r.row_hi + 1][r.col_lo]
    };
    let mut best: Option<Rect> = None;
    let mut best_area = 0usize;
    for ll_col in 0..cols {
        for ll_row in 0..rows {
            for ur_col in ll_col..cols {
                for ur_row in ll_row..rows {
                    let r = Rect {
                        row_lo: ll_row,
                        row_hi: ur_row,
                        col_lo: ll_col,
                        col_hi: ur_col,
                    };
                    let area = r.area();
                    if area > best_area && count(&r) as usize == area {
                        best_area = area;
                        best = Some(r);
                    }
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(rows: &[&str]) -> Vec<Vec<bool>> {
        rows.iter()
            .map(|r| r.chars().map(|c| c == '1').collect())
            .collect()
    }

    #[test]
    fn all_true_grid_is_fully_covered() {
        let g = grid(&["111", "111"]);
        let r = largest_rectangle(&g).unwrap();
        assert_eq!(
            r,
            Rect {
                row_lo: 0,
                row_hi: 1,
                col_lo: 0,
                col_hi: 2
            }
        );
        assert_eq!(r.area(), 6);
    }

    #[test]
    fn all_false_grid_yields_none() {
        let g = grid(&["000", "000"]);
        assert_eq!(largest_rectangle(&g), None);
        assert_eq!(largest_rectangle_bruteforce(&g), None);
    }

    #[test]
    fn l_shaped_region() {
        // The flat region is an L; the best rectangle is the 2x2 corner.
        let g = grid(&["110", "110", "100"]);
        let r = largest_rectangle(&g).unwrap();
        assert_eq!(r.area(), 4);
        assert_eq!(
            r,
            Rect {
                row_lo: 0,
                row_hi: 1,
                col_lo: 0,
                col_hi: 1
            }
        );
    }

    #[test]
    fn origin_preference_on_ties() {
        // Two disjoint 1x2 rectangles; the scan order picks the one whose
        // lower-left corner comes first (column-major, origin first).
        let g = grid(&["101", "101"]);
        let a = largest_rectangle(&g).unwrap();
        let b = largest_rectangle_bruteforce(&g).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.col_lo, 0, "origin column preferred");
        assert_eq!(a.area(), 2);
    }

    #[test]
    fn single_true_cell() {
        let g = grid(&["000", "010"]);
        let r = largest_rectangle(&g).unwrap();
        assert_eq!(
            r,
            Rect {
                row_lo: 1,
                row_hi: 1,
                col_lo: 1,
                col_hi: 1
            }
        );
        assert_eq!(r.area(), 1);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(largest_rectangle(&[]), None);
        assert_eq!(largest_rectangle(&[vec![]]), None);
        assert_eq!(largest_rectangle_bruteforce(&[]), None);
    }

    #[test]
    fn wide_vs_tall_tradeoff() {
        let g = grid(&["1111", "1100", "1100"]);
        // Candidates: 1x4 (area 4) vs 3x2 (area 6).
        let r = largest_rectangle(&g).unwrap();
        assert_eq!(r.area(), 6);
        assert_eq!(
            r,
            Rect {
                row_lo: 0,
                row_hi: 2,
                col_lo: 0,
                col_hi: 1
            }
        );
    }

    #[test]
    fn contains_checks_bounds() {
        let r = Rect {
            row_lo: 1,
            row_hi: 2,
            col_lo: 0,
            col_hi: 1,
        };
        assert!(r.contains(1, 0));
        assert!(r.contains(2, 1));
        assert!(!r.contains(0, 0));
        assert!(!r.contains(1, 2));
    }

    #[test]
    fn implementations_agree_on_fixed_cases() {
        for g in [
            grid(&["1"]),
            grid(&["0"]),
            grid(&["10", "01"]),
            grid(&["1110", "0111", "1111", "1101"]),
            grid(&[
                "1111111", "1111110", "1111100", "1111000", "1110000", "1100000", "1000000",
            ]),
        ] {
            assert_eq!(largest_rectangle(&g), largest_rectangle_bruteforce(&g));
        }
    }
}
