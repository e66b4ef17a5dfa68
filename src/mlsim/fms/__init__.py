from .grid import GridMap, bfs_distances, bfs_path
from .model import FmsParams, build_fms_model, build_initial_state

__all__ = [
    "GridMap",
    "bfs_distances",
    "bfs_path",
    "FmsParams",
    "build_fms_model",
    "build_initial_state",
]
