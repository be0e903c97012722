"""Per-item reference version of the windower.

``scene.window_samples`` works on arrays: one frame-sorted row table, and
per window a presence grid and a position grid over the agents present.
This is the loop it replaced, kept only as an oracle: it visits every
(window, ego, track) and looks each (agent, frame) up in a dict.
"""

import numpy as np

from epg_mgcn.errors import DataError
from epg_mgcn.scene import HIGHWAY_BAND_METERS, Sample


def _admit_neighbor(config, ego_pos, ego_lane, pos, lane) -> bool:
    if config.neighborhood == "radius":
        return float(np.hypot(*(pos - ego_pos))) <= config.d_d * config.node_scope
    # highway band: y is longitudinal, lanes from the source table
    if lane is None or ego_lane is None:
        raise DataError("highway_band neighborhood needs lane ids")
    return (
        abs(pos[1] - ego_pos[1]) <= HIGHWAY_BAND_METERS
        and abs(int(lane) - int(ego_lane)) <= 1
    )


def window_samples_loop(tracks, config, ego_selection="every_complete_agent",
                        ego_id=None):
    """The windower one (window, ego, track) at a time."""
    if not tracks:
        return []
    length = config.window_points
    stride = config.window_stride or length
    p_obs = config.t_obs_points

    index = {}
    for track in tracks:
        index[track.agent_id] = {int(f): i for i, f in enumerate(track.frames)}
    by_id = {t.agent_id: t for t in tracks}

    f_min = min(int(t.frames[0]) for t in tracks)
    f_max = max(int(t.frames[-1]) for t in tracks)

    samples = []
    for start in range(f_min, f_max - length + 2, stride):
        window = range(start, start + length)
        last_obs = start + p_obs - 1
        complete = [
            t.agent_id for t in tracks
            if all(f in index[t.agent_id] for f in window)
        ]
        if ego_selection == "given_id":
            egos = [ego_id] if ego_id in complete else []
        else:
            egos = complete
        for ego in egos:
            ego_track = by_id[ego]
            ego_row = index[ego][last_obs]
            ego_pos = ego_track.positions[ego_row]
            ego_lane = None if ego_track.lanes is None else ego_track.lanes[ego_row]
            neighbors = []
            for track in tracks:
                if track.agent_id == ego:
                    continue
                row = index[track.agent_id].get(last_obs)
                if row is None:
                    continue
                lane = None if track.lanes is None else track.lanes[row]
                if _admit_neighbor(config, ego_pos, ego_lane,
                                   track.positions[row], lane):
                    neighbors.append(track.agent_id)
            agent_ids = [ego] + neighbors
            n = len(agent_ids)
            obs = np.zeros((n, p_obs, 2))
            fut = np.zeros((n, config.t_pred_frames, 2))
            obs_mask = np.zeros((n, p_obs), dtype=bool)
            fut_mask = np.zeros((n, config.t_pred_frames), dtype=bool)
            for i, aid in enumerate(agent_ids):
                rows = index[aid]
                track = by_id[aid]
                for k, f in enumerate(range(start, start + p_obs)):
                    r = rows.get(f)
                    if r is not None:
                        obs[i, k] = track.positions[r]
                        obs_mask[i, k] = True
                for k, f in enumerate(range(start + p_obs, start + length)):
                    r = rows.get(f)
                    if r is not None:
                        fut[i, k] = track.positions[r]
                        fut_mask[i, k] = True
            samples.append(
                Sample(
                    categories=[by_id[a].category for a in agent_ids],
                    observed=obs,
                    future=fut,
                    ego_plan=fut[0].copy(),
                    obs_mask=obs_mask,
                    fut_mask=fut_mask,
                    frame_rate=config.frame_rate,
                    agent_ids=agent_ids,
                )
            )
    return samples
