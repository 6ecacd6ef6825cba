//! Points, coordinates, directions and the L1 metric (Section 2 of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Exact integer coordinate.  All geometry in this workspace is exact.
pub type Coord = i64;

/// Path-length / distance type.  Lengths of rectilinear paths with `Coord`
/// endpoints are always representable as `i64`.
pub type Dist = i64;

/// "Infinite" distance sentinel.  Chosen so that `INF + INF` does not
/// overflow and `INF` still compares larger than any realistic path length.
pub const INF: Dist = i64::MAX / 4;

/// Largest supported |coordinate| of the instance container (the obstacle
/// bounding box pushed out by the container margin): `INF / 32`, which is
/// `2^56 - 1`.
///
/// Why this bound.  With every container coordinate in
/// `[-MAX_COORD, MAX_COORD]`, the container is at most `W, H <= 2·MAX_COORD`
/// wide and high.  A free point reaches the obstacle-free margin ring by a
/// monotone escape staircase of length at most `W + H`; two ring points are
/// at most `W + H` apart along the ring; and a staircase leads back in.  So
/// every finite distance is at most `3(W + H) <= 12·MAX_COORD`.  The query
/// layers add two distances before they compare (`sat_add`), and that sum
/// is at most `24·MAX_COORD = 0.75·INF`.  No true length therefore reaches
/// the `INF` ("unreachable") sentinel, and no sum overflows.  Past the bound
/// a reachable pair could come back as `INF`, so scenes that reach past it
/// are rejected when a session is built or edited.
pub const MAX_COORD: Coord = INF / 32;

/// A point in the plane with integer coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: Coord,
    /// Vertical coordinate.
    pub y: Coord,
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl Point {
    /// Create a point.
    pub const fn new(x: Coord, y: Coord) -> Self {
        Point { x, y }
    }

    /// L1 (rectilinear / Manhattan) distance `|x(p)-x(q)| + |y(p)-y(q)|`.
    ///
    /// A *staircase* (convex path) between `p` and `q` has exactly this
    /// length, which is why staircases are always shortest paths when they
    /// are obstacle-avoiding (Section 2).
    pub fn l1(&self, other: Point) -> Dist {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Is `self` strictly below `other` (same x, smaller y)?  Matches the
    /// paper's definition of "strictly below".
    pub fn strictly_below(&self, other: Point) -> bool {
        self.x == other.x && self.y < other.y
    }

    /// Is `self` strictly to the left of `other` (same y, smaller x)?
    pub fn strictly_left_of(&self, other: Point) -> bool {
        self.y == other.y && self.x < other.x
    }

    /// Does `self` dominate `other` in the NE sense (`x >= ` and `y >= `)?
    pub fn dominates_ne(&self, other: Point) -> bool {
        self.x >= other.x && self.y >= other.y
    }

    /// Translate by `(dx, dy)`.
    pub fn offset(&self, dx: Coord, dy: Coord) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

/// Convenience constructor used pervasively in tests and examples.
pub fn pt(x: Coord, y: Coord) -> Point {
    Point::new(x, y)
}

/// The four axis directions.  Used for ray shooting, path tracing
/// (`NE(p)`, `WS(p)`, ... in Section 3) and trapezoidal decomposition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Dir {
    /// Towards increasing `y`.
    North,
    /// Towards decreasing `y`.
    South,
    /// Towards increasing `x`.
    East,
    /// Towards decreasing `x`.
    West,
}

impl Dir {
    /// All four directions.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::South, Dir::East, Dir::West];

    /// Unit step of this direction.
    pub fn step(self) -> (Coord, Coord) {
        match self {
            Dir::North => (0, 1),
            Dir::South => (0, -1),
            Dir::East => (1, 0),
            Dir::West => (-1, 0),
        }
    }

    /// Opposite direction.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::South => Dir::North,
            Dir::East => Dir::West,
            Dir::West => Dir::East,
        }
    }

    /// Is this direction vertical (north/south)?
    pub fn is_vertical(self) -> bool {
        matches!(self, Dir::North | Dir::South)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_metric_basics() {
        let a = pt(0, 0);
        let b = pt(3, 4);
        assert_eq!(a.l1(b), 7);
        assert_eq!(b.l1(a), 7);
        assert_eq!(a.l1(a), 0);
    }

    #[test]
    fn l1_triangle_inequality_examples() {
        let a = pt(-5, 2);
        let b = pt(7, -3);
        let c = pt(0, 0);
        assert!(a.l1(b) <= a.l1(c) + c.l1(b));
    }

    #[test]
    fn strict_relations() {
        assert!(pt(1, 0).strictly_below(pt(1, 5)));
        assert!(!pt(1, 0).strictly_below(pt(2, 5)));
        assert!(pt(0, 3).strictly_left_of(pt(4, 3)));
        assert!(!pt(0, 3).strictly_left_of(pt(0, 3)));
    }

    #[test]
    fn dominance() {
        assert!(pt(3, 3).dominates_ne(pt(1, 2)));
        assert!(pt(3, 3).dominates_ne(pt(3, 3)));
        assert!(!pt(3, 3).dominates_ne(pt(4, 0)));
    }

    #[test]
    fn directions() {
        assert_eq!(Dir::North.opposite(), Dir::South);
        assert_eq!(Dir::East.opposite(), Dir::West);
        assert!(Dir::North.is_vertical());
        assert!(!Dir::East.is_vertical());
        assert_eq!(Dir::West.step(), (-1, 0));
        assert_eq!(Dir::ALL.len(), 4);
    }

    #[test]
    fn inf_is_safe_to_add() {
        const { assert!(INF + INF > 0) };
        const { assert!(INF > 1_000_000_000_000) };
        // The derivation on `MAX_COORD`: two distances of at most
        // `3(W + H) <= 12·MAX_COORD` each still sum to less than `INF`.
        const { assert!(24 * MAX_COORD < INF) };
        assert_eq!(MAX_COORD, (1 << 56) - 1);
    }
}
