"""Byte identity of seeded runs: fronts, histories and ``_stats.csv``.

Short ``rbrdo run`` configurations at seed 1 cover every mode, strategy
and problem, ``--scheme uniform``, ``--mpp-nominal`` and ``--worst-case``;
the heat exchanger runs every mode, strategy and ``--mpp-nominal``.
Their output files hash to the SHA-256 digests below, which were recorded
on the platform in ``PLATFORM``. Some outputs depend on the build beyond
the summation orders the package fixes (catalyst's 2x2 matrix products go
through BLAS, ``stats.fit_front`` solves through LAPACK), so the test is
skipped on any other platform rather than failed there.

A change that moves a front on purpose updates the digests in the same
commit. To print this platform's digests, run
``PYTHONPATH=src python tests/test_byte_identity.py``.
"""

import contextlib
import hashlib
import pathlib
import platform
import sys
import tempfile

import numpy as np
import pytest

from rbrdo.cli import main

PLATFORM = {"machine": "x86_64", "numpy": "2.4.6",
            "blas": "scipy-openblas 0.3.31.188.0"}

RUNS = {
    "heat": "--problem heat-exchanger --delta 0,0.05 --generations 5",
    "heat-penalty": ("--problem heat-exchanger --delta 0.1 "
                     "--strategy penalty --generations 20"),
    "heat-type2": ("--problem heat-exchanger --delta 0.05 "
                   "--strategy type2 --eta 0.1 --generations 20"),
    "heat-nominal": ("--problem heat-exchanger --delta 0.05 --mpp-nominal "
                     "--generations 20"),
    "heat-rbdo": ("--problem heat-exchanger --mode rbdo --beta-t 2 "
                  "--generations 100"),
    "catalyst": "--problem catalyst --delta 0,0.05 --generations 5",
    "catalyst-uniform": ("--problem catalyst --delta 0.05 --scheme uniform "
                         "--generations 5"),
    "reactor": "--problem reactor --delta 0.05 --generations 2",
    "benchmark-type2-nominal": ("--problem benchmark --delta 0.05 "
                                "--strategy type2 --eta 0.1 --mpp-nominal "
                                "--generations 5"),
    "benchmark-type2-worst": ("--problem benchmark --delta 0.05 "
                              "--strategy type2 --eta 0.1 --worst-case "
                              "--generations 5"),
    "benchmark-penalty": ("--problem benchmark --delta 0.05 "
                          "--strategy penalty --generations 5"),
    "benchmark-rbdo": ("--problem benchmark --mode rbdo --beta-t 3 "
                       "--generations 30"),
    **{f"{name}-det": f"--problem {name} --mode deterministic "
                      f"--generations 30"
       for name in ("benchmark", "catalyst", "heat-exchanger", "reactor")},
}

DIGESTS = {
    "heat": {
        "heat_front_delta0.05.csv":
            "053f0c0604b179681f4fdd56d03cbab4de4ea640730d4792324ffcf0e7ac90b1",
        "heat_front_delta0.csv":
            "9eae69df30370912d382b8a51782862d7588b527b2109c005e63fe02c4d052f5",
        "heat_history_delta0.05.csv":
            "5a45d40a6a2d6b892adf4ff45be5925570e9c19931c79907170eeb3dd5b3feaf",
        "heat_history_delta0.csv":
            "cf0cbadfff8d471a935960c6014966fb2c6766abe33a372b1b8075c5a5cd4173",
        "heat_stats.csv":
            "c94362ac60e6bf026a068397f88656d1e0d9f3ed507a34e8386f99fbb318050e",
    },
    "heat-penalty": {
        "heat-penalty_front_delta0.1.csv":
            "3f03895c3c2f86fa6553391afa3a9f991e243d58cd02c6ca3a205609d495e9f2",
        "heat-penalty_history_delta0.1.csv":
            "792fddf5b4ed9963ef64f11b69cb5ff6da2ea6a24e039b45e4bf5a5f5994489b",
        "heat-penalty_stats.csv":
            "9cb09542f4761231b71da2b0e3dd4d4009d5914e78783b501981a414031d3d2d",
    },
    "heat-type2": {
        "heat-type2_front_delta0.05.csv":
            "69c2e946060232bce96dad6e1d2943773fadc78b400acc83346faf1a9be453ac",
        "heat-type2_history_delta0.05.csv":
            "54fcd9a28fc4fdccf401ba32ecde475d81ed632fcdb3172de7ed509af4fe0216",
        "heat-type2_stats.csv":
            "865c46ea004c150201bd322f6454521d38384fec3485a2830929aa3fbadddfae",
    },
    "heat-nominal": {
        "heat-nominal_front_delta0.05.csv":
            "6f926287eb3dd092a8aa0e6ab5cbaf036a8c3095f14a27a794d35b57d5470137",
        "heat-nominal_history_delta0.05.csv":
            "be8aacd85c8701166907f897d128dd2be4c219c7efc1ae7879864159a9f7b766",
        "heat-nominal_stats.csv":
            "96d7bcf274dcea20f38e81dd8ab956b9054364661d768092708044e0a655b391",
    },
    "heat-rbdo": {
        "heat-rbdo_front.csv":
            "7bb1545320f7b71dc3882c690397ecca72fe41f0e1fd46c784e1946641c68236",
        "heat-rbdo_history.csv":
            "ee080c2685d076bf254801293c4c59cd3b0da0b5a3731ecfb1d00b75b6fd530a",
    },
    "catalyst": {
        "catalyst_front_delta0.05.csv":
            "28ac3d339325c6bbf22a3f8216f7c1b5f2374c15288436289dbeb92df5ea446c",
        "catalyst_front_delta0.csv":
            "2384d21ee18a530170f41b41c12f531add3467ba3ed7cbff69e8ba6837826a29",
        "catalyst_history_delta0.05.csv":
            "7a1994ca317db400ff1324a5e6f40e9df459717e4124a875d0f659b2bb292335",
        "catalyst_history_delta0.csv":
            "9a9b7228dd4a14ee85039ed69a403fa69f1a82c3efc63fd4436e118fdf0350f2",
        "catalyst_stats.csv":
            "059f9fd35900ad770c19caa691672e0da38fa2d348cc3874fc9386a6a5aeecb9",
    },
    "catalyst-uniform": {
        "catalyst-uniform_front_delta0.05.csv":
            "d504f1c0ff651e3a5dcaf299d7fdf58aabe8146623c511d1ea5e40426d3f3a7f",
        "catalyst-uniform_history_delta0.05.csv":
            "ea4bda5916b60016691d8ea3d8286505a447fc2373c465fbc9152659017e780c",
        "catalyst-uniform_stats.csv":
            "820dc11b661f4c5383bf16bb29a46ba11d8b5d18591031ecd30793c995f83cf2",
    },
    "reactor": {
        "reactor_front_delta0.05.csv":
            "9ee030dd1878a8eccf9139c701ca830e4390732c7e751629ee12f8c06a945d94",
        "reactor_history_delta0.05.csv":
            "888b2708cd6dfff2ddc9641ee1f6e7169e6cecb417c6b9d2a084f85ddb25de43",
        "reactor_stats.csv":
            "8380f036a26e4abbc404c4a8cf3505516eb75c14c8faba305a4a0a9707e8a736",
    },
    "benchmark-type2-nominal": {
        "benchmark-type2-nominal_front_delta0.05.csv":
            "64f23b6de893de299016a7295b1fb490735c0f0f033dc61949ee2d7c0f79a669",
        "benchmark-type2-nominal_history_delta0.05.csv":
            "6023fc9f90101ccbc0e662be1e8f131cd9a0316387a745dc55a0f54e946dd289",
        "benchmark-type2-nominal_stats.csv":
            "010caea49db43cd93d79662919523bd16be1d3814d115b5cc2fda1b01541a402",
    },
    "benchmark-type2-worst": {
        "benchmark-type2-worst_front_delta0.05.csv":
            "d9589d07fd33cec74392cb7eea2f34dbf169fca87863b807c657a39e3c7dd042",
        "benchmark-type2-worst_history_delta0.05.csv":
            "140c1b6b0f73ea078a89602b35803ec147d15739fcba41c0b3364171301af0df",
        "benchmark-type2-worst_stats.csv":
            "a4c4ba23d32247e6bdd789a24401afe5abb3aa4170cb9604eb228bb5ad5f0e0d",
    },
    "benchmark-penalty": {
        "benchmark-penalty_front_delta0.05.csv":
            "af595961de868ce9a9063ec8fd2903d94a5c3d0cfbc73a6992ee6666f336c9fc",
        "benchmark-penalty_history_delta0.05.csv":
            "99430d606af1697624c83310b7e36d90ea93ce31ce539d66c6e294ea1c25fa46",
        "benchmark-penalty_stats.csv":
            "9dad04d612830d425886932deedb169ddff952ed4e1da2ca29ce516ee26aaf70",
    },
    "benchmark-rbdo": {
        "benchmark-rbdo_front.csv":
            "60a9007cc0bd6cbef9ff653149ed69fde23396a9e70507a375750d14c00424d0",
        "benchmark-rbdo_history.csv":
            "e10c9a8cdcd79317134118ba68ef73c475a63f29badb06845cf981e2db70dc83",
    },
    "benchmark-det": {
        "benchmark-det_front.csv":
            "2171ea02718fadece47e5d1451da30f6a57f05dd2259c81ad48387c7d4b16075",
        "benchmark-det_history.csv":
            "9778d46932598e4a7d1f7f7f28abb4aae79822ac2b43f70067e873c2dcad6ef2",
    },
    "catalyst-det": {
        "catalyst-det_front.csv":
            "ac730321d98fc1b917e28d10bd1f8641949ef3abeafac35f0d7c0efb262e3aff",
        "catalyst-det_history.csv":
            "1957619227cc47acf3693bc13046415c63f984c09ee18b50255947118eaf55ac",
    },
    "heat-exchanger-det": {
        "heat-exchanger-det_front.csv":
            "3511065407b4237d8c154db5baa3edefe7424211de326da77337ad69f34831df",
        "heat-exchanger-det_history.csv":
            "38f20c8678b984341a004318b02f2378ba55416f91ea304d4ae8dd2a2078ee9e",
    },
    "reactor-det": {
        "reactor-det_front.csv":
            "70a5628f149d1ecfd8735f77d60a093cb362a8b0563d5144b1eab958aab3f14b",
        "reactor-det_history.csv":
            "f3389c22e504ab80d3c766be635f2c840be59f47f582771b2decdbe13996c0b9",
    },
}


def this_platform() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {"machine": platform.machine(), "numpy": np.__version__,
            "blas": blas}


def run_digests(name: str, out_dir) -> dict:
    """{file name: sha256} of the fronts, histories and stats of a run."""
    out = f"{out_dir}/{name}"
    assert main(["run", *RUNS[name].split(), "--seed", "1", "--history",
                 "--out", out]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(pathlib.Path(out_dir).glob(f"{name}_*.csv"))}


@pytest.mark.skipif(this_platform() != PLATFORM,
                    reason=f"digests were recorded on {PLATFORM}")
@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_recorded_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        digests = {name: run_digests(name, tmp) for name in RUNS}
    print(f"PLATFORM = {this_platform()!r}")
    print(f"DIGESTS = {digests!r}")
