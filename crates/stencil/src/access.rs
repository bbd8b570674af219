//! Resolving stencil offsets under boundary conditions.

use crate::boundary::{AxisOutcome, BoundarySpec};
use crate::grid::GridSpec;
use crate::shape::StencilShape;
use crate::{ModelError, ModelResult, Word};

/// The resolved target of one stencil point for one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// An in-grid element at this linear index.
    Inside(usize),
    /// The point does not exist for this element (open boundary).
    Skip,
    /// The point takes a fixed value (constant boundary).
    Constant(Word),
}

/// A resolved stencil point expressed relative to the element's own
/// position in the stream — the form the buffering model reasons about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinearAccess {
    /// In-grid element at `element_linear + offset`.
    Rel(i64),
    /// Skipped point.
    Skip,
    /// Constant-valued point.
    Constant(Word),
}

/// Resolves one shape offset at `coords` under the boundary conditions,
/// returning the absolute access.
pub fn resolve(
    grid: &GridSpec,
    bounds: &BoundarySpec,
    coords: &[usize],
    offset: &[isize],
) -> ModelResult<Access> {
    if offset.len() != grid.ndim() {
        return Err(ModelError::DimMismatch {
            grid_dims: grid.ndim(),
            offset_dims: offset.len(),
        });
    }
    if bounds.ndim() != grid.ndim() {
        return Err(ModelError::BadBoundary(format!(
            "boundary spec covers {} axes, grid has {}",
            bounds.ndim(),
            grid.ndim()
        )));
    }
    // Row-major linear index of the resolved point; every resolved axis
    // index is in range.
    let mut lin = 0usize;
    let mut constant: Option<Word> = None;
    for (axis, &len) in grid.dims().iter().enumerate() {
        let idx = coords[axis] as isize + offset[axis];
        match bounds.resolve_axis(axis, idx, len)? {
            AxisOutcome::Index(i) => lin = lin * len + i,
            AxisOutcome::Skip => return Ok(Access::Skip),
            AxisOutcome::Constant(v) => {
                // A constant on any axis makes the whole point constant;
                // remaining axes are still checked for skips (a skip wins).
                constant = Some(v);
                lin *= len;
            }
        }
    }
    Ok(match constant {
        Some(v) => Access::Constant(v),
        None => Access::Inside(lin),
    })
}

/// Resolves the full tuple of one element into stream-relative accesses.
pub fn linear_tuple(
    grid: &GridSpec,
    bounds: &BoundarySpec,
    shape: &StencilShape,
    coords: &[usize],
) -> ModelResult<Vec<LinearAccess>> {
    let own = grid.lin(coords)? as i64;
    shape
        .offsets()
        .iter()
        .map(|off| {
            Ok(match resolve(grid, bounds, coords, off)? {
                Access::Inside(target) => LinearAccess::Rel(target as i64 - own),
                Access::Skip => LinearAccess::Skip,
                Access::Constant(v) => LinearAccess::Constant(v),
            })
        })
        .collect()
}

/// Gathers one element's tuple *positionally*: `values[p]` corresponds to
/// shape point `p`, with bit `p` of the returned mask set when the point
/// exists (in-grid or constant). Skipped points leave `values[p] = 0` and
/// the bit clear. This is the form computation kernels consume — it
/// matches the `val_p`/`valid_mask` interface of the generated RTL.
pub fn gather_masked(
    grid: &GridSpec,
    bounds: &BoundarySpec,
    shape: &StencilShape,
    data: &[Word],
    coords: &[usize],
) -> ModelResult<(Vec<Word>, u64)> {
    if data.len() != grid.len() {
        return Err(ModelError::BadGrid(format!(
            "data length {} does not match grid size {}",
            data.len(),
            grid.len()
        )));
    }
    let mut values = vec![0; shape.len()];
    let mut mask = 0u64;
    for (p, off) in shape.offsets().iter().enumerate() {
        match resolve(grid, bounds, coords, off)? {
            Access::Inside(i) => {
                values[p] = data[i];
                mask |= 1 << p;
            }
            Access::Skip => {}
            Access::Constant(v) => {
                values[p] = v;
                mask |= 1 << p;
            }
        }
    }
    Ok((values, mask))
}

/// Gathers the actual data values of one element's tuple from `data`
/// (the grid contents in stream order). Skipped points are omitted;
/// constants are included. Prefer [`gather_masked`] for kernel input — it
/// preserves point positions.
pub fn gather_values(
    grid: &GridSpec,
    bounds: &BoundarySpec,
    shape: &StencilShape,
    data: &[Word],
    coords: &[usize],
) -> ModelResult<Vec<Word>> {
    if data.len() != grid.len() {
        return Err(ModelError::BadGrid(format!(
            "data length {} does not match grid size {}",
            data.len(),
            grid.len()
        )));
    }
    let mut out = Vec::with_capacity(shape.len());
    for off in shape.offsets() {
        match resolve(grid, bounds, coords, off)? {
            Access::Inside(i) => out.push(data[i]),
            Access::Skip => {}
            Access::Constant(v) => out.push(v),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{AxisBoundaries, Boundary};

    fn grid11() -> GridSpec {
        GridSpec::d2(11, 11).unwrap()
    }

    #[test]
    fn interior_point_resolves_all_four_neighbours() {
        let g = grid11();
        let b = BoundarySpec::paper_case();
        let s = StencilShape::four_point_2d();
        let t = linear_tuple(&g, &b, &s, &[5, 5]).unwrap();
        assert_eq!(
            t,
            vec![
                LinearAccess::Rel(-11),
                LinearAccess::Rel(-1),
                LinearAccess::Rel(1),
                LinearAccess::Rel(11)
            ]
        );
    }

    #[test]
    fn top_row_wraps_north_to_bottom_row() {
        // This is Fig. 1(a) of the paper: element 5 in row 0 reads 115/116
        // from the wrapped bottom row.
        let g = grid11();
        let b = BoundarySpec::paper_case();
        let s = StencilShape::four_point_2d();
        let t = linear_tuple(&g, &b, &s, &[0, 5]).unwrap();
        assert_eq!(
            t,
            vec![
                LinearAccess::Rel(110), // north wraps to row 10: +W*(H-1)
                LinearAccess::Rel(-1),
                LinearAccess::Rel(1),
                LinearAccess::Rel(11)
            ]
        );
    }

    #[test]
    fn bottom_row_wraps_south_to_top_row() {
        let g = grid11();
        let b = BoundarySpec::paper_case();
        let s = StencilShape::four_point_2d();
        let t = linear_tuple(&g, &b, &s, &[10, 5]).unwrap();
        assert_eq!(
            t,
            vec![
                LinearAccess::Rel(-11),
                LinearAccess::Rel(-1),
                LinearAccess::Rel(1),
                LinearAccess::Rel(-110) // south wraps to row 0
            ]
        );
    }

    #[test]
    fn left_edge_skips_west() {
        let g = grid11();
        let b = BoundarySpec::paper_case();
        let s = StencilShape::four_point_2d();
        let t = linear_tuple(&g, &b, &s, &[5, 0]).unwrap();
        assert_eq!(
            t,
            vec![
                LinearAccess::Rel(-11),
                LinearAccess::Skip,
                LinearAccess::Rel(1),
                LinearAccess::Rel(11)
            ]
        );
    }

    #[test]
    fn corner_combines_wrap_and_skip() {
        // North-west corner: north wraps, west skips.
        let g = grid11();
        let b = BoundarySpec::paper_case();
        let s = StencilShape::four_point_2d();
        let t = linear_tuple(&g, &b, &s, &[0, 0]).unwrap();
        assert_eq!(
            t,
            vec![
                LinearAccess::Rel(110),
                LinearAccess::Skip,
                LinearAccess::Rel(1),
                LinearAccess::Rel(11)
            ]
        );
    }

    #[test]
    fn constant_boundary_supplies_value() {
        let g = GridSpec::d2(3, 3).unwrap();
        let b = BoundarySpec::new(&[
            AxisBoundaries::both(Boundary::Constant(7)),
            AxisBoundaries::both(Boundary::Open),
        ])
        .unwrap();
        let s = StencilShape::four_point_2d();
        let t = linear_tuple(&g, &b, &s, &[0, 1]).unwrap();
        assert_eq!(
            t[0],
            LinearAccess::Constant(7),
            "north off-grid is constant"
        );
        assert_eq!(t[3], LinearAccess::Rel(3), "south in-grid");
    }

    #[test]
    fn skip_beats_constant_when_both_axes_cross() {
        // Corner where row axis gives a constant and column axis is open:
        // the point must be skipped, not given the constant.
        let g = GridSpec::d2(3, 3).unwrap();
        let b = BoundarySpec::new(&[
            AxisBoundaries::both(Boundary::Constant(7)),
            AxisBoundaries::both(Boundary::Open),
        ])
        .unwrap();
        let s = StencilShape::new(&[vec![-1, -1]]).unwrap();
        let t = linear_tuple(&g, &b, &s, &[0, 0]).unwrap();
        assert_eq!(t, vec![LinearAccess::Skip]);
    }

    #[test]
    fn gather_values_matches_manual_lookup() {
        let g = grid11();
        let b = BoundarySpec::paper_case();
        let s = StencilShape::four_point_2d();
        let data: Vec<Word> = (0..121).collect();
        // Element (0,5) = linear 5: north wraps to 115, west 4, east 6, south 16.
        let vals = gather_values(&g, &b, &s, &data, &[0, 5]).unwrap();
        assert_eq!(vals, vec![115, 4, 6, 16]);
        // Left edge (5,0) = linear 55: west skipped.
        let vals = gather_values(&g, &b, &s, &data, &[5, 0]).unwrap();
        assert_eq!(vals, vec![44, 56, 66]);
    }

    #[test]
    fn gather_masked_is_positional() {
        let g = grid11();
        let b = BoundarySpec::paper_case();
        let s = StencilShape::four_point_2d();
        let data: Vec<Word> = (0..121).collect();
        // Left edge (5,0): west (point 1) is skipped; others present.
        let (vals, mask) = gather_masked(&g, &b, &s, &data, &[5, 0]).unwrap();
        assert_eq!(mask, 0b1101, "point 1 (west) missing");
        assert_eq!(vals, vec![44, 0, 56, 66]);
        // Interior point: all four present.
        let (vals, mask) = gather_masked(&g, &b, &s, &data, &[5, 5]).unwrap();
        assert_eq!(mask, 0b1111);
        assert_eq!(vals, vec![49, 59, 61, 71]);
        assert!(gather_masked(&g, &b, &s, &[0; 4], &[0, 0]).is_err());
    }

    #[test]
    fn gather_checks_data_length() {
        let g = grid11();
        let b = BoundarySpec::paper_case();
        let s = StencilShape::four_point_2d();
        assert!(gather_values(&g, &b, &s, &[0; 5], &[0, 0]).is_err());
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let g = grid11();
        let b = BoundarySpec::paper_case();
        assert!(resolve(&g, &b, &[0, 0], &[1]).is_err());
        let b1 = BoundarySpec::all_open(1).unwrap();
        assert!(resolve(&g, &b1, &[0, 0], &[1, 0]).is_err());
    }

    #[test]
    fn full_torus_has_no_skips_anywhere() {
        let g = GridSpec::d2(4, 4).unwrap();
        let b = BoundarySpec::all_circular(2).unwrap();
        let s = StencilShape::four_point_2d();
        for coords in g.iter_coords() {
            let t = linear_tuple(&g, &b, &s, &coords).unwrap();
            assert!(t.iter().all(|a| matches!(a, LinearAccess::Rel(_))));
        }
    }
}
