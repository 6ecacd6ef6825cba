//! The workspace-level error type for the [`Router`](crate::router::Router)
//! session API.
//!
//! Before this module existed, failure was signalled three different ways:
//! [`InstanceError`] from validation, `Option`-means-not-a-vertex from the
//! query/path layers, and panics from `expect` calls in examples.  Every
//! fallible `Router` entry point returns [`RspError`] instead, which absorbs
//! all three conventions and implements [`std::error::Error`], so callers
//! can use `?` and `Box<dyn Error>` like with any other Rust library.

use crate::instance::InstanceError;
use rsp_geom::{Coord, DisjointnessViolation, Point, RectId, MAX_COORD};

/// Everything that can go wrong when building a [`Router`](crate::router::Router)
/// or serving a query through it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RspError {
    /// Two obstacles have overlapping interiors; carries the offending pair
    /// (ids and rectangles) so the caller can locate and fix the input.
    OverlappingObstacles(DisjointnessViolation),
    /// An obstacle is not contained in the instance's container.
    ObstacleOutsideContainer(RectId),
    /// The container is not rectilinearly convex.
    ContainerNotConvex,
    /// A point passed to a vertex-only API (e.g. `path`) is not an obstacle
    /// vertex.
    NotAVertex(Point),
    /// A point lies outside the instance container `P`.
    PointOutsideContainer(Point),
    /// A query endpoint lies strictly inside an obstacle (carries the point
    /// and the obstacle id), so no obstacle-avoiding path exists.
    PointInsideObstacle {
        /// The offending query point.
        point: Point,
        /// Id of the obstacle whose open interior contains the point.
        obstacle: RectId,
    },
    /// `threads(p)` was asked for a thread pool that could not be built.
    ThreadPool(String),
    /// A [`SceneDelta`](rsp_geom::SceneDelta) passed to
    /// [`Router::apply_delta`](crate::router::Router::apply_delta) is
    /// malformed (removal out of range or duplicated).
    InvalidDelta(rsp_geom::DeltaError),
    /// The container would reach past [`MAX_COORD`] (an obstacle coordinate
    /// pushed out by the margin; carries that coordinate), where a distance
    /// could exceed the `INF` sentinel.
    CoordinateOutOfRange(Coord),
}

impl std::fmt::Display for RspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RspError::OverlappingObstacles(v) => write!(f, "{v}"),
            RspError::ObstacleOutsideContainer(i) => {
                write!(f, "obstacle {i} is not contained in the container")
            }
            RspError::ContainerNotConvex => write!(f, "the container is not rectilinearly convex"),
            RspError::NotAVertex(p) => {
                write!(f, "point ({}, {}) is not an obstacle vertex", p.x, p.y)
            }
            RspError::PointOutsideContainer(p) => {
                write!(f, "point ({}, {}) lies outside the instance container", p.x, p.y)
            }
            RspError::PointInsideObstacle { point, obstacle } => {
                write!(f, "query point ({}, {}) lies strictly inside obstacle {}", point.x, point.y, obstacle)
            }
            RspError::ThreadPool(msg) => write!(f, "failed to build the thread pool: {msg}"),
            RspError::InvalidDelta(e) => write!(f, "invalid scene delta: {e}"),
            RspError::CoordinateOutOfRange(c) => {
                write!(f, "container coordinate {c} lies outside the supported range ±{MAX_COORD}")
            }
        }
    }
}

impl std::error::Error for RspError {}

impl From<DisjointnessViolation> for RspError {
    fn from(v: DisjointnessViolation) -> Self {
        RspError::OverlappingObstacles(v)
    }
}

impl From<rsp_geom::DeltaError> for RspError {
    fn from(e: rsp_geom::DeltaError) -> Self {
        RspError::InvalidDelta(e)
    }
}

impl From<InstanceError> for RspError {
    fn from(e: InstanceError) -> Self {
        match e {
            InstanceError::OverlappingObstacles(v) => RspError::OverlappingObstacles(v),
            InstanceError::ObstacleOutsideContainer(i) => RspError::ObstacleOutsideContainer(i),
            InstanceError::ContainerNotConvex => RspError::ContainerNotConvex,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::{ObstacleSet, Rect};

    #[test]
    fn display_names_the_offending_pair() {
        let obs = ObstacleSet::new(vec![Rect::new(0, 0, 4, 4), Rect::new(10, 10, 12, 12), Rect::new(3, 1, 8, 5)]);
        let err: RspError = obs.validate_disjoint().unwrap_err().into();
        let msg = err.to_string();
        assert!(msg.contains("obstacles 0 and 2"), "{msg}");
        assert!(msg.contains("[0,4]x[0,4]"), "{msg}");
        assert!(msg.contains("[3,8]x[1,5]"), "{msg}");
    }

    #[test]
    fn instance_errors_convert() {
        assert_eq!(RspError::from(InstanceError::ContainerNotConvex), RspError::ContainerNotConvex);
        assert_eq!(RspError::from(InstanceError::ObstacleOutsideContainer(3)), RspError::ObstacleOutsideContainer(3));
    }

    #[test]
    fn error_trait_object() {
        let err: Box<dyn std::error::Error> = Box::new(RspError::NotAVertex(Point::new(1, 2)));
        assert!(err.to_string().contains("(1, 2)"));
    }
}
