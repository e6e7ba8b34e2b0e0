#!/usr/bin/env python3
"""One algorithm, three execution backends, identical bits.

The fitters talk to each other only through broadcast/gather
collectives; the root sums the gathered per-subject rows in a fixed
subject order. The
payoff: a fit distributed over worker threads (or processes) returns
exactly the same floating-point result as the serial run, so parallel
runs need no numerical sign-off. This demo fits the same dataset with
one worker and with two worker threads and compares the raw bytes, then
shows the per-rank communication ledger.
"""

import threading

import numpy as np

from factorfit import srm
from factorfit.collectives import SerialCommunicator, create_thread_communicators
from factorfit.data_io import SubjectData
from factorfit.kernels import polar_orthogonal

rng = np.random.default_rng(42)

n_subjects, n_voxels, n_trs, k = 4, 200, 40, 4
shared = rng.standard_normal((k, n_trs))
subjects = [
    SubjectData(
        f"subject-{i}",
        polar_orthogonal(rng.standard_normal((n_voxels, k))) @ shared
        + 0.1 * rng.standard_normal((n_voxels, n_trs)),
    )
    for i in range(n_subjects)
]
config = srm.SrmConfig(k=k, iterations=8, seed=1)

# ----------------------------------------------------------------------
# Serial reference run.
# ----------------------------------------------------------------------
serial_comm = SerialCommunicator()
serial_model = srm.fit(subjects, config, serial_comm)
print("serial fit done")

# ----------------------------------------------------------------------
# Two worker threads, two subjects each. Each worker calls fit() with
# its own communicator and its own slice of the subjects.
# ----------------------------------------------------------------------
comms = create_thread_communicators(2)
chunks = [subjects[:2], subjects[2:]]
models = [None, None]


def worker(rank):
    models[rank] = srm.fit(chunks[rank], config, comms[rank])


threads = [threading.Thread(target=worker, args=(r,)) for r in (0, 1)]
for t in threads:
    t.start()
for t in threads:
    t.join()
for comm in comms:
    comm.close()  # each rank's ends of its socket pairs
print("2-worker fit done")

# ----------------------------------------------------------------------
# Compare: the shared response must match bit for bit, and each rank's
# subject mappings must equal the serial run's.
# ----------------------------------------------------------------------
same_S = serial_model.S.tobytes() == models[0].S.tobytes()
print(f"shared response bit-identical across backends: {same_S}")
for rank, offset in ((0, 0), (1, 2)):
    for j, W in enumerate(models[rank].W):
        same = W.tobytes() == serial_model.W[offset + j].tobytes()
        print(f"  rank {rank} subject {offset + j}: mapping identical = {same}")

# ----------------------------------------------------------------------
# What actually traveled? Each rank ships K x T partial sums and scalar
# noise variances per iteration, never anything voxel-sized.
# ----------------------------------------------------------------------
for rank, comm in enumerate(comms):
    s = comm.stats
    print(
        f"rank {rank}: gathered {s.gather_bytes} B up, "
        f"received {s.bcast_bytes} B down over {s.gather_calls} rounds "
        f"({n_voxels} voxels never crossed a worker boundary)"
    )
