"""Depth-camera scene simulator substituting the Kinect measurement setup."""
from repro.scene.actors import (
    CrossingPedestrian,
    LoiteringPedestrian,
    Pedestrian,
    PedestrianTrafficConfig,
    generate_crossing_traffic,
    periodic_crossing_traffic,
)
from repro.scene.camera import DepthCamera, DepthCameraIntrinsics, default_ue_camera
from repro.scene.environment import (
    DEFAULT_FRAME_INTERVAL_S,
    BlockerGeometry,
    CorridorScene,
    SceneFrame,
)
from repro.scene.geometry import (
    AxisAlignedBox,
    Pose,
)

__all__ = [
    "AxisAlignedBox",
    "BlockerGeometry",
    "CorridorScene",
    "CrossingPedestrian",
    "DEFAULT_FRAME_INTERVAL_S",
    "DepthCamera",
    "DepthCameraIntrinsics",
    "LoiteringPedestrian",
    "Pedestrian",
    "PedestrianTrafficConfig",
    "Pose",
    "SceneFrame",
    "default_ue_camera",
    "generate_crossing_traffic",
    "periodic_crossing_traffic",
]
