"""Checkpoint persistence: a versioned on-disk pipeline snapshot.

One checkpoint is a directory::

    <checkpoint>/
        manifest.json     # format version, configs, offsets, checksums
        shard_0000.npz    # every numpy array of shard 0's state tree
        shard_0001.npz
        ...

The manifest is the source of truth: it embeds the full
:class:`~repro.config.InferenceConfig` / :class:`OutputPolicyConfig` /
:class:`RuntimeConfig` as JSON (so a restore rebuilds *exactly* the
configuration the state was captured under), the stream offset
(``epochs_processed`` — the resume seek position), the event-bus watermark,
and per-shard JSON skeletons whose array leaves point into the shard's
``.npz`` file.  Each ``.npz`` is integrity-checked by a SHA-256 recorded in
the manifest; a flipped bit fails loudly at load, not as a silently wrong
posterior three thousand epochs later.

Writes are atomic at the directory level: content lands in a ``*.tmp``
sibling which is renamed into place, so a crash mid-checkpoint leaves either
the previous checkpoint or a ``.tmp`` turd, never a half-written manifest
that a restore would trust.

**Differential checkpoints** reuse the exact same layout with
``"kind": "delta"`` in the manifest: the shard ``.npz`` files hold *delta
capture* trees (dirty object blocks plus the full id order — see
:mod:`.delta`) instead of full ones, and the manifest records the chain —
``parent`` (the immediately preceding checkpoint, full or delta), ``base``
(the chain's full rebase), and ``chain_index``.  Loading a delta checkpoint
walks the chain back to its base and replays every delta, verifying each
link's SHA-256s and capture-serial continuity, so the caller always receives
fully materialized state trees.  The write stays atomic per link, and the
``LATEST`` pointer is only moved after a link's rename — a crash mid-delta
leaves ``LATEST`` on the previous complete, restorable checkpoint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import (
    ArenaConfig,
    BudgetConfig,
    CompressionConfig,
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
    SpatialIndexConfig,
    SupervisorConfig,
)
from ..errors import InferenceError, StateError
from ..faults import fault_point
from .delta import apply_shard_delta, is_delta_state
from .snapshot import (
    join_state_tree,
    jsonable_to_rng_state,
    rng_state_to_jsonable,
    split_state_tree,
)

#: Bump when the manifest or state-tree layout changes incompatibly.
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Manifest ``kind`` values: a self-contained snapshot, or a differential
#: one that must be materialized against its ``parent``/``base`` chain.
CHECKPOINT_KINDS = ("full", "delta")


# ---------------------------------------------------------------------------
# Config (de)serialization
# ---------------------------------------------------------------------------
def inference_config_to_dict(config: InferenceConfig) -> dict:
    return dataclasses.asdict(config)


def inference_config_from_dict(data: dict) -> InferenceConfig:
    data = dict(data)
    try:
        data["compression"] = CompressionConfig(**data["compression"])
        data["spatial_index"] = SpatialIndexConfig(**data["spatial_index"])
        data["arena"] = ArenaConfig(**data["arena"])
        # Pre-adaptive manifests have no budget section: default (disabled).
        data["budget"] = BudgetConfig(**data.get("budget", {}))
        return InferenceConfig(**data)
    except (KeyError, TypeError) as exc:
        raise StateError(f"manifest inference config is invalid: {exc}") from exc


def policy_config_from_dict(data: dict) -> OutputPolicyConfig:
    try:
        return OutputPolicyConfig(**data)
    except TypeError as exc:
        raise StateError(f"manifest output policy is invalid: {exc}") from exc


def runtime_config_from_dict(data: dict) -> RuntimeConfig:
    data = dict(data)
    try:
        # Pre-supervision manifests have no supervisor section: None
        # (disabled) — and asdict() serialized it as a nested dict.
        supervisor = data.get("supervisor")
        data["supervisor"] = (
            SupervisorConfig(**supervisor) if supervisor is not None else None
        )
        # JSON round-trips tuples as lists.
        if data.get("shard_hosts") is not None:
            data["shard_hosts"] = tuple(data["shard_hosts"])
        return RuntimeConfig(**data)
    except TypeError as exc:
        raise StateError(f"manifest runtime config is invalid: {exc}") from exc


def config_hash(
    config: InferenceConfig, policy: OutputPolicyConfig, initial_heading: float
) -> str:
    """Digest of everything that must match between capture and restore.

    The runtime config is deliberately excluded: shard count, executor, and
    checkpoint cadence are *deployment* choices a restore may change
    (elastic re-sharding); the inference semantics live in the engine and
    policy configs.
    """
    payload = json.dumps(
        {
            "inference": inference_config_to_dict(config),
            "policy": dataclasses.asdict(policy),
            "initial_heading": float(initial_heading),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Manifest model
# ---------------------------------------------------------------------------
@dataclass
class CheckpointManifest:
    """Parsed manifest plus fully re-joined per-shard state trees.

    For a delta checkpoint the ``shard_states`` are already *materialized*
    (base + every delta replayed in order), so consumers — the restore
    path, the elastic re-sharder — never see differential trees; ``kind``
    and ``chain`` record what was on disk (``chain`` lists the directory
    names replayed, base first, empty for a full checkpoint).
    """

    version: int
    config: InferenceConfig
    policy: OutputPolicyConfig
    runtime: RuntimeConfig
    initial_heading: float
    epochs_processed: int
    bus_last_time: Optional[float]
    bus_published: int
    config_digest: str
    shard_states: List[dict]
    kind: str = "full"
    chain: List[str] = dataclasses.field(default_factory=list)
    #: Operator state of each query engine attached to the runtime at
    #: capture time, by attachment name (empty for pre-PR-7 checkpoints).
    #: Apply via ``engine.restore_state(manifest.query_states[name])`` after
    #: registering the same standing queries.
    query_states: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Free-form JSON payload captured from ``runtime.manifest_extras()``
    #: at save time (empty when the runtime declares none).  The ingest
    #: service records its exactly-once offsets here: per-source consumed
    #: sequence numbers, the epoch grid origin, and the delivery sink's
    #: next/acked emission offsets.  Like ``query_states``, the newest link
    #: of a delta chain carries the complete payload.
    extras: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return len(self.shard_states)


# ---------------------------------------------------------------------------
# Save
# ---------------------------------------------------------------------------
def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _shard_file_name(index: int) -> str:
    return f"shard_{index:04d}.npz"


def _encode_shard_state(state: dict) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Split a shard state tree, normalizing the RNG leaf to JSON first."""
    state = dict(state)
    engine = dict(state["engine"])
    engine["rng_state"] = rng_state_to_jsonable(engine["rng_state"])
    state["engine"] = engine
    return split_state_tree(state)


def _collect_shard_snapshots(shards, mode: str = "full") -> List[dict]:
    """Snapshot every shard through the split-phase surface.

    Requesting all shards before collecting any lets worker shards
    serialize their state trees concurrently instead of one at a time.
    Every pending reply is always collected — even after a failure — so
    the worker links stay in sync; the first error is re-raised once the
    sweep completes.
    """
    for shard in shards:
        shard.snapshot_async(mode)
    states: List[Optional[dict]] = []
    failure: Optional[BaseException] = None
    for shard in shards:
        try:
            states.append(shard.collect_snapshot())
        except (StateError, InferenceError) as exc:
            # Keep draining: a reply left behind on a healthy worker's
            # link would be misread by the next request after the caller
            # handles this checkpoint failure and keeps streaming.
            failure = failure if failure is not None else exc
            states.append(None)
    if failure is not None:
        raise failure
    return states


def _read_manifest_json(path: str) -> dict:
    """Load and sanity-check a checkpoint directory's raw manifest JSON."""
    manifest_path = os.path.join(os.fspath(path), MANIFEST_NAME)
    try:
        with open(manifest_path) as fp:
            manifest = json.load(fp)
    except FileNotFoundError:
        raise StateError(f"no checkpoint manifest at {manifest_path}") from None
    except json.JSONDecodeError as exc:
        raise StateError(f"corrupt checkpoint manifest {manifest_path}") from exc
    if manifest.get("format") != "repro-checkpoint":
        raise StateError(f"{manifest_path} is not a repro checkpoint manifest")
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        raise StateError(
            f"checkpoint format version {version} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return manifest


def _check_delta_chains(parent_manifest: dict, states: List[dict], path) -> None:
    """Prove each delta capture chains onto the parent checkpoint's capture.

    Compares the per-shard ``parent_capture_serial`` of the fresh delta
    trees against the ``capture_serial`` recorded in the parent manifest's
    skeletons.  A mismatch means a capture happened between the parent
    checkpoint and this one (an explicit ``checkpoint()`` call, a test
    snapshot, …) — writing the delta anyway would persist a torn chain.
    """
    parents = parent_manifest.get("shards", [])
    if len(parents) != len(states):
        raise StateError(
            f"delta checkpoint has {len(states)} shards but its parent "
            f"{path} has {len(parents)}"
        )
    for index, (record, state) in enumerate(zip(parents, states)):
        for part in ("engine", "pipeline"):
            have = record["state"].get(part, {}).get("capture_serial")
            want = state[part].get("parent_capture_serial")
            if have is None or want != have:
                raise StateError(
                    f"shard {index} {part} delta does not chain onto {path}: "
                    f"delta parent serial {want!r}, checkpoint serial {have!r} "
                    "(a state capture happened in between; rebase with a "
                    "full checkpoint)"
                )


def save_checkpoint(runtime, path, mode: str = "full", parent=None) -> str:
    """Write a coordinated snapshot of a :class:`ShardedRuntime`.

    ``runtime`` is duck-typed (needs ``shards``, ``config``, ``policy``,
    ``runtime_config``, ``initial_heading``, ``epochs_processed``, ``bus``)
    so this module does not import the runtime layer.  Returns the final
    checkpoint path.

    ``mode="delta"`` writes a *differential* checkpoint: each shard ships
    only its dirty object blocks since ``parent`` (a sibling checkpoint
    directory, full or delta — the chain's base plus every intermediate
    delta must stay on disk until the next full rebase;
    :func:`rotate_checkpoints` knows not to break chains).  The delta is
    refused — never silently mis-written — when the shards' capture serials
    show it would not chain onto ``parent``.
    """
    path = os.fspath(path)
    if mode not in CHECKPOINT_KINDS:
        raise StateError(f"unknown checkpoint mode {mode!r}")
    if os.path.exists(path):
        raise StateError(f"checkpoint target already exists: {path}")
    parent_manifest: Optional[dict] = None
    if mode == "delta":
        if parent is None:
            raise StateError("a delta checkpoint needs a parent checkpoint")
        parent = os.fspath(parent)
        if os.path.dirname(os.path.abspath(parent)) != os.path.dirname(
            os.path.abspath(path)
        ):
            raise StateError(
                "a delta checkpoint must live beside its parent "
                f"({parent} vs {path})"
            )
        parent_manifest = _read_manifest_json(parent)
        digest = config_hash(runtime.config, runtime.policy, runtime.initial_heading)
        if parent_manifest.get("config_hash") != digest:
            raise StateError(
                f"cannot chain a delta onto {parent}: its configuration "
                "differs from the running one"
            )

    states = _collect_shard_snapshots(runtime.shards, mode=mode)
    if mode == "delta":
        assert parent_manifest is not None
        _check_delta_chains(parent_manifest, states, parent)
    shard_payloads = [_encode_shard_state(state) for state in states]
    # Query-engine operator state (shared windows, streamer counters,
    # pending tick).  Captured whole in every link — it is small next to
    # the shard slabs and holds arbitrary hashable tuple values (frozensets,
    # nested tuples), so it ships as a pickle blob, not npz.
    query_payloads = [
        (name, pickle.dumps(engine.snapshot_state(), protocol=pickle.HIGHEST_PROTOCOL))
        for name, engine in sorted(getattr(runtime, "query_engines", {}).items())
    ]
    # Runtime-attached extras (duck-typed like the rest of the runtime
    # surface): a serving layer hangs a callable off the runtime to record
    # its own offsets — ingest sequence numbers, sink delivery offsets —
    # inside the same coordinated cut as the shard state.  Must be JSON.
    extras_fn = getattr(runtime, "manifest_extras", None)
    extras = extras_fn() if callable(extras_fn) else None
    if extras is not None and not isinstance(extras, dict):
        raise StateError(
            f"runtime.manifest_extras() must return a dict, got {type(extras).__name__}"
        )

    tmp = path + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    try:
        shard_records = []
        for index, (skeleton, arrays) in enumerate(shard_payloads):
            file_name = _shard_file_name(index)
            file_path = os.path.join(tmp, file_name)
            # npz keys may contain '/', which savez would mangle through its
            # zip-member naming on some platforms; index arrays explicitly.
            keys = sorted(arrays)
            np.savez_compressed(
                file_path,
                __keys__=np.asarray(keys, dtype=str),
                **{f"a{i}": arrays[k] for i, k in enumerate(keys)},
            )
            # Chaos harness: simulated EIO / power loss / torn write per
            # shard file — the whole tmp dir is discarded on the raise.
            fault_point("checkpoint.write", path=file_path)
            shard_records.append(
                {
                    "file": file_name,
                    "sha256": _sha256_file(file_path),
                    "state": skeleton,
                }
            )
        query_records = []
        for index, (name, blob) in enumerate(query_payloads):
            file_name = f"query_{index:04d}.pkl"
            with open(os.path.join(tmp, file_name), "wb") as fp:
                fp.write(blob)
            query_records.append(
                {
                    "name": name,
                    "file": file_name,
                    "sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
        manifest = {
            "format": "repro-checkpoint",
            "version": FORMAT_VERSION,
            "kind": mode,
            "config_hash": config_hash(
                runtime.config, runtime.policy, runtime.initial_heading
            ),
            "inference_config": inference_config_to_dict(runtime.config),
            "output_policy": dataclasses.asdict(runtime.policy),
            "runtime_config": dataclasses.asdict(runtime.runtime_config),
            "initial_heading": float(runtime.initial_heading),
            "epochs_processed": int(runtime.epochs_processed),
            "bus_last_time": runtime.bus.last_time,
            "bus_published": int(runtime.bus.published),
            "shards": shard_records,
        }
        if query_records:
            manifest["query_engines"] = query_records
        if extras:
            try:
                manifest["extras"] = json.loads(json.dumps(extras))
            except (TypeError, ValueError) as exc:
                raise StateError(
                    f"runtime.manifest_extras() is not JSON-serializable: {exc}"
                ) from exc
        if mode == "delta":
            assert parent_manifest is not None
            manifest["parent"] = os.path.basename(parent)
            manifest["base"] = (
                os.path.basename(parent)
                if parent_manifest.get("kind", "full") == "full"
                else parent_manifest["base"]
            )
            manifest["chain_index"] = int(parent_manifest.get("chain_index", 0)) + 1
        with open(os.path.join(tmp, MANIFEST_NAME), "w") as fp:
            json.dump(manifest, fp, indent=1)
            fp.write("\n")
        os.rename(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------
def _load_shard_arrays(path: str) -> Dict[str, np.ndarray]:
    with np.load(path) as data:
        keys = [str(k) for k in data["__keys__"]]
        return {k: data[f"a{i}"] for i, k in enumerate(keys)}


def _decode_shard_state(skeleton: dict, arrays: Dict[str, np.ndarray]) -> dict:
    state = join_state_tree(skeleton, arrays)
    state["engine"]["rng_state"] = jsonable_to_rng_state(state["engine"]["rng_state"])
    return state


def _load_query_states(path: str, manifest: dict, verify: bool) -> Dict[str, Any]:
    """Decode a checkpoint's query-engine operator states.

    The newest link of a delta chain carries the complete (whole, not
    differential) query state, so only the leaf manifest is consulted.
    Pre-PR-7 checkpoints have no ``query_engines`` section: empty dict.
    """
    states: Dict[str, Any] = {}
    for record in manifest.get("query_engines", []):
        file_path = os.path.join(path, record["file"])
        with open(file_path, "rb") as fp:
            blob = fp.read()
        if verify:
            actual = hashlib.sha256(blob).hexdigest()
            if actual != record["sha256"]:
                raise StateError(
                    f"checksum mismatch for {file_path}: manifest says "
                    f"{record['sha256'][:12]}…, file is {actual[:12]}…"
                )
        states[record["name"]] = pickle.loads(blob)
    return states


def _load_shard_states(path: str, manifest: dict, verify: bool) -> List[dict]:
    """Decode one checkpoint directory's shard trees (full *or* delta)."""
    shard_states = []
    for record in manifest["shards"]:
        file_path = os.path.join(path, record["file"])
        if verify:
            actual = _sha256_file(file_path)
            if actual != record["sha256"]:
                raise StateError(
                    f"checksum mismatch for {file_path}: manifest says "
                    f"{record['sha256'][:12]}…, file is {actual[:12]}…"
                )
        arrays = _load_shard_arrays(file_path)
        shard_states.append(_decode_shard_state(record["state"], arrays))
    return shard_states


def _resolve_chain(path: str, manifest: dict) -> List[Tuple[str, dict]]:
    """Walk a delta checkpoint's parent links back to its full base.

    Returns ``[(path, manifest), …]`` ordered base first.  Any defect —
    missing parent, parent in a different directory, a cycle, a chain whose
    root is not a full checkpoint, a configuration change mid-chain —
    raises :class:`StateError`: a broken chain must fail at load, never
    materialize a half-right state.
    """
    directory = os.path.dirname(os.path.abspath(path))
    chain = [(path, manifest)]
    seen = {os.path.basename(os.path.abspath(path))}
    current = manifest
    while current.get("kind", "full") == "delta":
        parent_name = current.get("parent")
        if not parent_name or os.path.basename(parent_name) != parent_name:
            raise StateError(f"delta checkpoint {chain[-1][0]} has no valid parent")
        if parent_name in seen:
            raise StateError(f"delta checkpoint chain at {path} contains a cycle")
        seen.add(parent_name)
        parent_path = os.path.join(directory, parent_name)
        try:
            parent_manifest = _read_manifest_json(parent_path)
        except StateError as exc:
            raise StateError(
                f"delta checkpoint {chain[-1][0]} needs its parent "
                f"{parent_path}, which cannot be read: {exc}"
            ) from exc
        if parent_manifest.get("config_hash") != manifest.get("config_hash"):
            raise StateError(
                f"delta chain at {path} crosses a configuration change "
                f"(at {parent_path})"
            )
        chain.append((parent_path, parent_manifest))
        current = parent_manifest
    chain.reverse()
    return chain


def load_checkpoint(path, verify: bool = True) -> CheckpointManifest:
    """Parse a checkpoint directory back into configs + shard state trees.

    A *delta* checkpoint is transparently materialized: the chain is
    resolved back to its full base (all within the same directory), every
    link's shard files are integrity-checked, each delta's capture serials
    are proven to chain onto its parent's, and the deltas are replayed in
    order — the returned ``shard_states`` are bit-for-bit the trees a full
    checkpoint at the same epoch would hold.

    ``verify`` checks each shard file's SHA-256 against its manifest before
    deserializing it (skippable for speed when the storage is trusted).
    """
    path = os.fspath(path)
    manifest = _read_manifest_json(path)
    kind = manifest.get("kind", "full")
    if kind not in CHECKPOINT_KINDS:
        raise StateError(f"unknown checkpoint kind {kind!r} at {path}")
    chain = _resolve_chain(path, manifest) if kind == "delta" else [(path, manifest)]
    base_path, base_manifest = chain[0]
    if base_manifest.get("kind", "full") != "full":
        raise StateError(
            f"delta chain at {path} does not terminate in a full checkpoint"
        )
    shard_states = _load_shard_states(base_path, base_manifest, verify)
    for link_path, link_manifest in chain[1:]:
        if len(link_manifest["shards"]) != len(shard_states):
            raise StateError(
                f"delta checkpoint {link_path} changes the shard count "
                "mid-chain"
            )
        deltas = _load_shard_states(link_path, link_manifest, verify)
        shard_states = [
            apply_shard_delta(state, delta)
            for state, delta in zip(shard_states, deltas)
        ]
    for state in shard_states:
        if is_delta_state(state):  # pragma: no cover - defensive
            raise StateError(f"materialization of {path} left a delta tree")
    return CheckpointManifest(
        version=int(manifest["version"]),
        config=inference_config_from_dict(manifest["inference_config"]),
        policy=policy_config_from_dict(manifest["output_policy"]),
        runtime=runtime_config_from_dict(manifest["runtime_config"]),
        initial_heading=float(manifest["initial_heading"]),
        epochs_processed=int(manifest["epochs_processed"]),
        bus_last_time=manifest["bus_last_time"],
        bus_published=int(manifest["bus_published"]),
        config_digest=str(manifest["config_hash"]),
        shard_states=shard_states,
        kind=kind,
        chain=[os.path.basename(p) for p, _ in chain] if kind == "delta" else [],
        query_states=_load_query_states(path, manifest, verify),
        extras=dict(manifest.get("extras", {})),
    )


# ---------------------------------------------------------------------------
# Periodic-checkpoint housekeeping
# ---------------------------------------------------------------------------
def checkpoint_size_bytes(path) -> int:
    """Total on-disk size of a checkpoint directory."""
    path = os.fspath(path)
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def latest_checkpoint(directory) -> Optional[str]:
    """Resolve the ``LATEST`` pointer the runtime maintains, if present.

    A crash can tear the pointer (empty or pointing at a checkpoint that
    never finished its rename); completed checkpoints are themselves
    crash-consistent, so a bad pointer falls back to the newest
    ``epoch_*`` directory with a manifest rather than stranding recovery.
    """
    directory = os.fspath(directory)
    try:
        with open(os.path.join(directory, "LATEST")) as fp:
            name = fp.read().strip()
    except OSError:
        name = ""
    if name:
        target = os.path.join(directory, name)
        if os.path.isfile(os.path.join(target, "manifest.json")):
            return target
    try:
        entries = sorted(os.listdir(directory), reverse=True)
    except OSError:
        return None
    for name in entries:
        if not name.startswith("epoch_") or name.endswith(".tmp"):
            continue
        target = os.path.join(directory, name)
        if os.path.isfile(os.path.join(target, "manifest.json")):
            return target
    return None


def _chain_dependencies(directory: str, names: List[str]) -> set:
    """Transitive parent/base closure of the named checkpoints.

    Reads each manifest's ``parent``/``base`` links; an unreadable manifest
    contributes no dependencies (it cannot be restored anyway).  Only names
    are followed — a manifest can never pull in a directory outside
    ``directory``.
    """
    required: set = set()
    stack = list(names)
    while stack:
        name = stack.pop()
        try:
            manifest = _read_manifest_json(os.path.join(directory, name))
        except StateError:
            continue
        for key in ("parent", "base"):
            dep = manifest.get(key)
            if dep and os.path.basename(dep) == dep and dep not in required:
                required.add(dep)
                stack.append(dep)
    return required


def rotate_checkpoints(directory, keep: int) -> List[str]:
    """Delete the oldest ``epoch_*`` checkpoints beyond ``keep``.

    Ordering is by the zero-padded epoch index in the directory name, so it
    is stable regardless of filesystem timestamps.  A checkpoint that a
    *retained* checkpoint still depends on — the full base of a delta
    chain, or any intermediate delta — is never deleted, no matter how old:
    deleting it would leave the newest checkpoints unrestorable.  Such
    stragglers are reclaimed by a later rotation, once the next full rebase
    has freed the chain.  Returns removed paths.
    """
    directory = os.fspath(directory)
    entries = sorted(
        name
        for name in os.listdir(directory)
        if name.startswith("epoch_") and os.path.isdir(os.path.join(directory, name))
    )
    kept = entries[-keep:] if keep > 0 else []
    required = _chain_dependencies(directory, kept)
    removed = []
    for name in entries[: max(0, len(entries) - keep)] if keep > 0 else entries:
        if name in required:
            continue
        target = os.path.join(directory, name)
        try:
            shutil.rmtree(target)
        except FileNotFoundError:
            # Already gone — e.g. a drain-time rotation racing the periodic
            # one after a signal.  Rotation is housekeeping; a missing
            # victim is success, not failure.
            continue
        removed.append(target)
    return removed
