"""Golden digests of the serving simulator's observable output.

Every cell runs one seeded trace through a :class:`ServingCluster` and
hashes, with SHA-256, five views of the run:

* ``resp`` — every :class:`Response` field, in response order;
* ``summary`` — :meth:`FleetResult.summary`;
* ``routing`` — ``assignments``, ``decode_assignments``, ``transfers``
  and ``autoscale_events``;
* ``trace`` — the raw traced event stream, in emission order;
* ``metrics`` — the :class:`MetricsRegistry` snapshot, series included.

Floats are hashed as ``float.hex()``, so any bit that moves fails here.
The cells cross 5 routers x 3 schedulers x {unified 2r, disaggregated
1p2d} x {autoscale off, on} x {flat ``kv_token_budget``, paged
``page_budget_bytes``}. Regenerate (only for an intended behaviour
change) with::

    PYTHONPATH=src python tests/test_serve_golden.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.models.zoo import ARCHS
from repro.obs import MetricsRegistry, Tracer
from repro.serve import (
    AutoscalePolicy,
    LengthDist,
    ServingCluster,
    available_routers,
    available_schedulers,
    chat_workload,
)

ARCH = ARCHS["llama-2-7b"]
SHAPES = ("unified", "1p2d")
SCALING = ("fixed", "autoscale")
BUDGETS = ("flat", "paged")
VIEWS = ("resp", "summary", "routing", "trace", "metrics")
CELLS = [
    f"{router}/{scheduler}/{shape}/{scaling}/{budget}"
    for router in available_routers()
    for scheduler in available_schedulers()
    for shape in SHAPES
    for scaling in SCALING
    for budget in BUDGETS
]


def _requests():
    """Three bursty shared-prefix chat streams interleaved; some requests
    stop after one token (they finish on a prefill replica)."""
    return chat_workload(
        36,
        n_prefixes=3,
        prefix_len=128,
        seed=17,
        arrival="bursty",
        rate_rps=60.0,
        turn=LengthDist.lognormal(median=96, sigma=0.7, low=8, high=512),
        output=LengthDist.uniform(1, 24),
    )


def _cluster(cell: str) -> ServingCluster:
    router, scheduler, shape, scaling, budget = cell.split("/")
    kw = {}
    if shape == "unified":
        kw["n_replicas"] = 2
    else:
        kw.update(n_prefill=1, n_decode=2, decode_router=router, kv_transfer="pcie5")
    if scaling == "autoscale":
        kw["autoscale"] = AutoscalePolicy(
            max_replicas=3, min_replicas=1, scale_up_queue_depth=2
        )
    if budget == "flat":
        kw["kv_token_budget"] = 1024
    else:
        kw.update(page_budget_bytes=150 << 20, block_tokens=16)
    return ServingCluster(
        ARCH, "mxfp4+", router=router, scheduler=scheduler,
        tracer=Tracer(), metrics=MetricsRegistry(), **kw,
    )


def _canon(obj):
    """A repr-stable form of ``obj`` with every float as ``float.hex()``."""
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return [(k, _canon(obj[k])) for k in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str, list(obj.shape), obj.tobytes().hex()]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def _hash(obj) -> str:
    return hashlib.sha256(repr(_canon(obj)).encode()).hexdigest()[:16]


def _views(cell: str) -> dict[str, str]:
    cluster = _cluster(cell)
    fleet = cluster.run(_requests())
    responses = [
        (r.request_id, r.prompt_len, r.output_len, r.arrival_s,
         r.first_token_s, r.finish_s, r.preemptions, r.tokens)
        for r in fleet.responses
    ]
    routing = (
        fleet.assignments, fleet.decode_assignments,
        fleet.transfers, fleet.autoscale_events,
    )
    return {
        "resp": _hash(responses),
        "summary": _hash(fleet.summary()),
        "routing": _hash(routing),
        "trace": _hash([tuple(e) for e in cluster.tracer.raw_events()]),
        "metrics": _hash(cluster.metrics.snapshot()),
    }


def _digest(cell: str) -> str:
    views = _views(cell)
    return ".".join(views[v] for v in VIEWS)


#: Captured from the cluster as it stood before its unified and
#: disaggregated event loops were merged into one. The ``summary`` view of
#: the 30 ``1p2d/autoscale`` cells was re-pinned once, for one declared
#: change: a replica on which no request finished (an autoscaled prefill
#: replica) now reports its steps, stage seconds and ``peak_running``
#: instead of zeros, and the fleet's ``peak_running`` sums them. The
#: ``metrics`` view of all 120 cells was re-pinned once, when the
#: ``step_cache_hit_rate`` gauge moved from process-global whole-step memo
#: counters to the fleet's own step pricer (hits over both of its memos).
GOLDEN = {
    "free-kv-at-arrival/chunked-prefill/unified/fixed/flat": "ee618b1ef238a98c.361ec0d5a1893979.b79cfada8f39975e.91938e297531f9c3.46148767690c2792",
    "free-kv-at-arrival/chunked-prefill/unified/fixed/paged": "fd9d53d942cea24c.6c5a37047b16cf2e.b79cfada8f39975e.1209d514659e0225.b9b02fd2ea6abe91",
    "free-kv-at-arrival/chunked-prefill/unified/autoscale/flat": "73cd5b4835aef718.0a03a3ee661d58f3.a85f76cf9d564b71.550ca566b3de69cb.5946fb7676815e8d",
    "free-kv-at-arrival/chunked-prefill/unified/autoscale/paged": "73cd5b4835aef718.0a03a3ee661d58f3.a85f76cf9d564b71.550ca566b3de69cb.e0c902f57dfe7f05",
    "free-kv-at-arrival/chunked-prefill/1p2d/fixed/flat": "00a9224b560b1d03.4db71deb4312b024.944a6912669f5dbb.b573d289ddfd39e9.9e79864e15b304cd",
    "free-kv-at-arrival/chunked-prefill/1p2d/fixed/paged": "00a9224b560b1d03.489da2fc4058d144.944a6912669f5dbb.71df91b9af0617a8.1d8f91601bc4b796",
    "free-kv-at-arrival/chunked-prefill/1p2d/autoscale/flat": "26d94b385bd9bc51.bb576117a4b2341a.059b894e7a56b536.512802054c457ae1.06c248be52b7a659",
    "free-kv-at-arrival/chunked-prefill/1p2d/autoscale/paged": "26d94b385bd9bc51.bb576117a4b2341a.059b894e7a56b536.512802054c457ae1.02472b0e2b3faf4c",
    "free-kv-at-arrival/decode-priority/unified/fixed/flat": "23b7846eb5b0de6b.d71eb6c98bf2a788.7f62df206af9e1d3.3be3b96d5112b1ae.45eb0370e050b3ff",
    "free-kv-at-arrival/decode-priority/unified/fixed/paged": "7940c9a1597ab255.fc89cfa3e53a56be.c1f00935b27a5023.4e0f4dcb4da5eb02.f757313c689a3995",
    "free-kv-at-arrival/decode-priority/unified/autoscale/flat": "9d350f341c973643.f1474ff79ad8a355.8c3cbdc8ae320f48.f99285baca0f35cc.d7f8db0470b18f38",
    "free-kv-at-arrival/decode-priority/unified/autoscale/paged": "9d350f341c973643.f1474ff79ad8a355.8c3cbdc8ae320f48.f99285baca0f35cc.3a6ba9f82f933ea3",
    "free-kv-at-arrival/decode-priority/1p2d/fixed/flat": "d9b04ce1870c320d.7117b8da299bddb0.00ffe93563475188.3d981e10ec201636.66a8f13aed59e4f1",
    "free-kv-at-arrival/decode-priority/1p2d/fixed/paged": "6d5659eee3337ca3.1a23244e6a9cdd57.8e6a3c2637a05da2.ff19c49a24ab282e.8374cb131b0d523f",
    "free-kv-at-arrival/decode-priority/1p2d/autoscale/flat": "6ae3ac75e1f0a2e8.ef248b46bbe60508.952c26c71dcb818d.fe15f322634b6cc8.c3322971f14cd84b",
    "free-kv-at-arrival/decode-priority/1p2d/autoscale/paged": "8a3cc95b38009fa9.16f8c9246310508c.7f2ebe0f62ae3dbf.4d2b197230f7c524.34e221d33a730c5f",
    "free-kv-at-arrival/prefill-first/unified/fixed/flat": "93cf3618318cfbe8.ef512a462b66f957.b79cfada8f39975e.81620fd6e170ce74.320161577b3b3fd3",
    "free-kv-at-arrival/prefill-first/unified/fixed/paged": "6228fedd16cf5d44.4d2ee7e1d7e67ba3.b79cfada8f39975e.79197535c6bc62cb.48e64de382a220af",
    "free-kv-at-arrival/prefill-first/unified/autoscale/flat": "9c22d77ea25a41b9.44fe305b42326929.a85f76cf9d564b71.8779118409e2f4d8.57e166e31e129fb0",
    "free-kv-at-arrival/prefill-first/unified/autoscale/paged": "9c22d77ea25a41b9.44fe305b42326929.a85f76cf9d564b71.8779118409e2f4d8.94741651aac99f69",
    "free-kv-at-arrival/prefill-first/1p2d/fixed/flat": "ccdf7a156c49b2b1.6066f3a95437b2bd.c832036a87299429.df6b44a0bb86c387.5f5d81981f0a8778",
    "free-kv-at-arrival/prefill-first/1p2d/fixed/paged": "7f4dc3759c7252bc.43995acfe67e90c2.1ce74f234f882380.21cf8ce1b3ce6f03.478530862c7719a3",
    "free-kv-at-arrival/prefill-first/1p2d/autoscale/flat": "56fa94cd0b260bef.fbb15187537c847b.86497878619640e8.c16ab00d2668de0c.d8470f1d89b6aeae",
    "free-kv-at-arrival/prefill-first/1p2d/autoscale/paged": "56fa94cd0b260bef.fbb15187537c847b.86497878619640e8.c16ab00d2668de0c.b3cfd9123f4d3b7f",
    "least-kv-load/chunked-prefill/unified/fixed/flat": "0958c68e0b270903.2fa07bd22453a385.a7e74cc02f19e0e5.3ac63794648d51e4.b276de38ed31adeb",
    "least-kv-load/chunked-prefill/unified/fixed/paged": "0cd60313d24990c6.14146426cc714e12.a7e74cc02f19e0e5.11d344f0f296d819.23d844882d96a003",
    "least-kv-load/chunked-prefill/unified/autoscale/flat": "cad9849f2c84d3e3.6efeae1ac37cabed.8aa969b0726e96fd.e1c9f5dabf656a15.8c83c5cc6e355281",
    "least-kv-load/chunked-prefill/unified/autoscale/paged": "cad9849f2c84d3e3.6efeae1ac37cabed.8aa969b0726e96fd.e1c9f5dabf656a15.1f118f238ecc4e11",
    "least-kv-load/chunked-prefill/1p2d/fixed/flat": "4ac26f41a2beb7d6.06e3d9c5c5627e2a.0514014e998d2ad5.6ca16b9973bdf930.d6c26ee1b020f5c7",
    "least-kv-load/chunked-prefill/1p2d/fixed/paged": "4ac26f41a2beb7d6.c315838c3f680c05.0514014e998d2ad5.5306bdddc2b215ca.fbeb654481314353",
    "least-kv-load/chunked-prefill/1p2d/autoscale/flat": "f5205916f04e4bcd.21e932cc13ae91c8.f648cdcf7aae8055.948c4027a1d0220a.e68ed83dba383ff1",
    "least-kv-load/chunked-prefill/1p2d/autoscale/paged": "f5205916f04e4bcd.21e932cc13ae91c8.f648cdcf7aae8055.948c4027a1d0220a.cd2cb110b1c64065",
    "least-kv-load/decode-priority/unified/fixed/flat": "73071587a41d72f1.40155b40a5acb9ea.a7e74cc02f19e0e5.b45af4b22ccda7cb.ef77c4ef726c6f66",
    "least-kv-load/decode-priority/unified/fixed/paged": "73071587a41d72f1.40155b40a5acb9ea.a7e74cc02f19e0e5.b45af4b22ccda7cb.04ff400a45e46d58",
    "least-kv-load/decode-priority/unified/autoscale/flat": "177ed16e8ce9cdcd.229d3c18612c69b6.c8eb05a2d790f847.e6d25f5dd529607d.74302a0e1d105cca",
    "least-kv-load/decode-priority/unified/autoscale/paged": "177ed16e8ce9cdcd.229d3c18612c69b6.c8eb05a2d790f847.e6d25f5dd529607d.48a3a6628735aa27",
    "least-kv-load/decode-priority/1p2d/fixed/flat": "0196fd21e674ee16.858e35493719378e.9c05c528ae769aa9.aff5a245260905a6.abb347ffc7fdba9c",
    "least-kv-load/decode-priority/1p2d/fixed/paged": "ab6f5a440ec9d563.a507e49b97a700a3.7ba9658c01563eb0.ee0cdbfcd0dce5fe.b9c1290724736eea",
    "least-kv-load/decode-priority/1p2d/autoscale/flat": "4e7c598e3a66b1d4.c92d7bcc4ecf0f06.1dc0b792e364adce.0185a70e429a3bc1.0f0a219ad232e9af",
    "least-kv-load/decode-priority/1p2d/autoscale/paged": "4e7c598e3a66b1d4.c92d7bcc4ecf0f06.1dc0b792e364adce.0185a70e429a3bc1.c34bb1abfa2fe30c",
    "least-kv-load/prefill-first/unified/fixed/flat": "464448b6df189660.2d686254256aa6ed.a7e74cc02f19e0e5.9a70be4dc22936c3.c5319535352c277e",
    "least-kv-load/prefill-first/unified/fixed/paged": "5f9ec238a05296a3.a115478247d248f6.a7e74cc02f19e0e5.0b6869d4b2579c34.70acb4e5b454b408",
    "least-kv-load/prefill-first/unified/autoscale/flat": "977148af4550ff7b.5599709de2f92a9e.8aa969b0726e96fd.d5c18bc175d4365b.897196779cf794e0",
    "least-kv-load/prefill-first/unified/autoscale/paged": "977148af4550ff7b.5599709de2f92a9e.8aa969b0726e96fd.d5c18bc175d4365b.3ba42b00e95d32ac",
    "least-kv-load/prefill-first/1p2d/fixed/flat": "3f27f69194e11573.88d59953b78c1af1.85c0379198a5ae84.b14678e82c3a5095.0a48c25bebd6fd3f",
    "least-kv-load/prefill-first/1p2d/fixed/paged": "2f53daf5654f4bf7.877bd70c3e670efc.9a76476367f034fc.b29e96bb56cd499e.a5fc571213cb499e",
    "least-kv-load/prefill-first/1p2d/autoscale/flat": "5922b4e91f64560c.24437d9e967c03d1.a4da7d492506b27c.b03682d7ddebe752.86fb0db1dcda05fe",
    "least-kv-load/prefill-first/1p2d/autoscale/paged": "6a53cda520148a63.a2453b94e402dd37.a4da7d492506b27c.fdf7a863ce6b89a4.ad6d060a9e5579e4",
    "prefix-affinity/chunked-prefill/unified/fixed/flat": "dec8bf60330b7bf1.e754819897e772f2.ee492f66b8476717.0eb75971d0cef0f2.3538cc9f4b4de7a9",
    "prefix-affinity/chunked-prefill/unified/fixed/paged": "56db976506713af2.3d3b88511367756d.ee492f66b8476717.b06769b0c2173081.28641a73a2050705",
    "prefix-affinity/chunked-prefill/unified/autoscale/flat": "68bf731c73329a90.5339d960f2e3a11a.208f41283fd838d8.637f6a0a1a2b8159.14b46dd047d8b430",
    "prefix-affinity/chunked-prefill/unified/autoscale/paged": "21688cbaa8fc7e4c.2211028c0a082a5e.208f41283fd838d8.54025d5306f77b55.1fb3f6aece4cf78d",
    "prefix-affinity/chunked-prefill/1p2d/fixed/flat": "6b75eb4643c3611b.fbee50e06adeff00.cafb797f051912b5.75ad151dec571f1b.7c4ae9a83446361f",
    "prefix-affinity/chunked-prefill/1p2d/fixed/paged": "6b75eb4643c3611b.18ef953ff7ee71f1.cafb797f051912b5.b6fe37c4b5bbf732.95df5dbfbf10915d",
    "prefix-affinity/chunked-prefill/1p2d/autoscale/flat": "ef8facd66e65ed32.aea1d2522725748b.e1011ea99145a1af.f8bbe17a7c50b6fd.07ba87100a461b2b",
    "prefix-affinity/chunked-prefill/1p2d/autoscale/paged": "eb4bbabd699eab18.ffab14f392244b26.e1011ea99145a1af.03a0dab09ec3a486.9966ec8324ce6b07",
    "prefix-affinity/decode-priority/unified/fixed/flat": "f3f10c4547a72e28.d343b128493bb141.ee492f66b8476717.d0a2d7d08f0476d1.0c758e5a8d409e85",
    "prefix-affinity/decode-priority/unified/fixed/paged": "f3f10c4547a72e28.d343b128493bb141.ee492f66b8476717.d0a2d7d08f0476d1.988fb0e9fa367473",
    "prefix-affinity/decode-priority/unified/autoscale/flat": "32b171af1a05fe53.0aa91dd178e33252.208f41283fd838d8.14bc7b753da80d55.efb203514bd03e28",
    "prefix-affinity/decode-priority/unified/autoscale/paged": "7731156ab14bc4b5.195fbba8d441b4f4.208f41283fd838d8.7dceec25c96060a2.4d98045fc98c4c3a",
    "prefix-affinity/decode-priority/1p2d/fixed/flat": "ece32a7c1f555026.da069fbca92c9d17.183dfab065b74ff7.969554be3abd21d0.b7626cfc340f1191",
    "prefix-affinity/decode-priority/1p2d/fixed/paged": "fec3b2d8e2af242d.ca6fd9bd778a82a5.664fcd3c4e23327b.db9c5f9bb27840dd.7b0547be8ffe11fa",
    "prefix-affinity/decode-priority/1p2d/autoscale/flat": "1264012d7aa1e378.b4e9295a3e44eddd.4f795725c4c204bd.8091facaf12791a3.996951041b326979",
    "prefix-affinity/decode-priority/1p2d/autoscale/paged": "86cca3b1c82a829e.deb3ff6b69eb6aa3.4f795725c4c204bd.4a4f995fd206ea25.8c579ffb06ed340a",
    "prefix-affinity/prefill-first/unified/fixed/flat": "01f9189335b2b4c7.dc0ee2ed5ea9e011.ee492f66b8476717.5111a325f973406b.11629249fc6a633a",
    "prefix-affinity/prefill-first/unified/fixed/paged": "91d73555984fae3e.284b70e94cb80d2d.ee492f66b8476717.abacf3c63ff39b23.35be7f8ab98012fc",
    "prefix-affinity/prefill-first/unified/autoscale/flat": "08d5dfe3abb9e3ed.a0f784c3f11c4032.208f41283fd838d8.39e62984f5bf8354.2506707160efeac2",
    "prefix-affinity/prefill-first/unified/autoscale/paged": "b69b6aaad481fd29.3790400c12317bfa.208f41283fd838d8.14d70917bffbfabe.e00d0ba46f987a5e",
    "prefix-affinity/prefill-first/1p2d/fixed/flat": "aa77fe6054d01fbf.510a23557274ac37.6ff229f0170df972.5697ac16c99ebeaa.2f3e2ed22b84515b",
    "prefix-affinity/prefill-first/1p2d/fixed/paged": "2d3b5f39d3adfd27.4f77d572929633b5.bd7957f9964f212d.567b51588139ae0e.2de40fda272634f2",
    "prefix-affinity/prefill-first/1p2d/autoscale/flat": "86532dec5a0e9356.c4614038bee37a6b.2cf2cfed350f8544.65d409c259058084.29b72909c73f93c0",
    "prefix-affinity/prefill-first/1p2d/autoscale/paged": "05ef746deee40926.0d21b1f63092c827.2cf2cfed350f8544.b50357255b59c851.31a76fef973a0807",
    "queue-depth/chunked-prefill/unified/fixed/flat": "b2d926c77431d029.86bd0130de480e7c.4d6e12ef1b6c763f.9168a352119b2e2e.7adef2a419b66e7d",
    "queue-depth/chunked-prefill/unified/fixed/paged": "da9473698007d16f.6e489b07ab3e5567.4d6e12ef1b6c763f.9610b060de33d253.847be9464883334f",
    "queue-depth/chunked-prefill/unified/autoscale/flat": "31c368fbaa3b60c9.6724a25c9b1d96cb.32926c18819f904f.93867a2446e82f93.b1bfdd7166576a37",
    "queue-depth/chunked-prefill/unified/autoscale/paged": "31c368fbaa3b60c9.630db131b7370293.32926c18819f904f.c07b4f00f6a26beb.270a4963fcef8196",
    "queue-depth/chunked-prefill/1p2d/fixed/flat": "cc781510312e8586.26390bcad21935d4.3a7b6eed98db155d.694d50855eff1712.7ed3b4e2ff29fd67",
    "queue-depth/chunked-prefill/1p2d/fixed/paged": "cc781510312e8586.5dc2492a957cd436.3a7b6eed98db155d.d6b93564617cfdb8.6c504a581eaca49d",
    "queue-depth/chunked-prefill/1p2d/autoscale/flat": "f17caabd82860f48.afb3e23c6f409992.6e4677ec8acb37d2.3c51e585dcc98c5a.8486744e63b0d9c7",
    "queue-depth/chunked-prefill/1p2d/autoscale/paged": "2d1e67b2c5681a3b.ac95760c20bc1846.6e4677ec8acb37d2.d2b92e8de668d354.d1e85f70f409176a",
    "queue-depth/decode-priority/unified/fixed/flat": "22a1fa2ac6d61328.6c12baf4070c5b4d.d5def7c6b3e2877e.aaf0197a450ba29c.f08e5ad63eef7a92",
    "queue-depth/decode-priority/unified/fixed/paged": "0f3f4ba249f7c60e.b23a822b0c063e30.d5def7c6b3e2877e.0820539f3415f9b4.bdb1d4991f6b84ef",
    "queue-depth/decode-priority/unified/autoscale/flat": "3e69c50267de3acb.14c850b59466556b.03f3c8174d9b7006.aedb0ca7db63cea7.0b277ef14d4f5fc8",
    "queue-depth/decode-priority/unified/autoscale/paged": "3e69c50267de3acb.14c850b59466556b.03f3c8174d9b7006.aedb0ca7db63cea7.3516ba7d61edd996",
    "queue-depth/decode-priority/1p2d/fixed/flat": "54e0757ab6c4893c.f3e94e920774747c.a7af848d4d3c3253.83f6de30166efa72.2448123b3db0a6ef",
    "queue-depth/decode-priority/1p2d/fixed/paged": "4ff02c5050065d17.7a1568965461d810.6eff3685e57779ce.c5f72d91789f88e3.5a100c0a4fcf3fff",
    "queue-depth/decode-priority/1p2d/autoscale/flat": "64a91a2bb1925969.1a3d3fe2dc196fcd.d091fe3a02d7a0e0.081a718f7b20cb2e.8704eeb20befc2ad",
    "queue-depth/decode-priority/1p2d/autoscale/paged": "64a91a2bb1925969.1a3d3fe2dc196fcd.d091fe3a02d7a0e0.081a718f7b20cb2e.a5242c500ce417c7",
    "queue-depth/prefill-first/unified/fixed/flat": "0544159679bf4559.624c2e9bababb866.4e549f0675e1fc1a.a100e2fd9df08292.75eaf2e4c5ed3142",
    "queue-depth/prefill-first/unified/fixed/paged": "1795ce46807b3ccd.f5e3537170d336c5.4e549f0675e1fc1a.86277fc7d69b5ba0.1fea775bd3ae4dd1",
    "queue-depth/prefill-first/unified/autoscale/flat": "2534fcdf01bb6369.e00fe65bd02a69a7.a9a42cd4ddfeb50f.280a7d453f295fa1.769f0c145049b843",
    "queue-depth/prefill-first/unified/autoscale/paged": "cb91f027f460a3a9.af9ad39fcac7530c.a9a42cd4ddfeb50f.1c0942af63746633.7788edc846de09ef",
    "queue-depth/prefill-first/1p2d/fixed/flat": "2ee34077bbd072ad.d392b3ffc11c2fe1.226f2ae535cdb37b.d44fc73c8a7673c6.98a66252de98ea7b",
    "queue-depth/prefill-first/1p2d/fixed/paged": "5a05019009fda7ee.b507a4661aaed46e.08c8174b85539b05.f8e00d1a2fea19c7.ed3c8a72e0339250",
    "queue-depth/prefill-first/1p2d/autoscale/flat": "dbe10055656b184e.1f8ac6ca5cd0c9e3.222c5ea5eb16a106.84404fe562025ae3.082e86c6699fca87",
    "queue-depth/prefill-first/1p2d/autoscale/paged": "f41f080d80482431.02916e23f45fbb95.326951601869e28f.9cdbc8a081b6c3fe.612ab4d4f6afece1",
    "round-robin/chunked-prefill/unified/fixed/flat": "c16a1994452acac9.13341e4599a4b12f.c651900299547d97.5c2b356ee049b03b.8cad4c95981f7203",
    "round-robin/chunked-prefill/unified/fixed/paged": "03e74beb77995463.2bc792eb5962bde4.c651900299547d97.7d2569e1e1bf1e04.d5cc82cce9bfbd9a",
    "round-robin/chunked-prefill/unified/autoscale/flat": "9c9ad03df0e5ddb0.47711eb66e8869fc.74adc7e8ba14baea.9dbe66fa69b9bfd4.dab4886e34f2781e",
    "round-robin/chunked-prefill/unified/autoscale/paged": "0d14dc93fbc7b455.a777bbc6aee5db50.74adc7e8ba14baea.8704d71998897555.0aa4f6629a5b0a25",
    "round-robin/chunked-prefill/1p2d/fixed/flat": "09cac4883fac206a.59f6285e695966fb.ccc6b35700aee638.a4526081142b95f4.bc351feda0247d09",
    "round-robin/chunked-prefill/1p2d/fixed/paged": "09cac4883fac206a.79e4bc8985487b3b.ccc6b35700aee638.d743aef453a102c9.777e7934495a2ee6",
    "round-robin/chunked-prefill/1p2d/autoscale/flat": "673f90ffb59bca66.c58fcabbfcfaf063.43da8d6415fe4ef4.2c97e2004afbabab.b82052a513f5b4da",
    "round-robin/chunked-prefill/1p2d/autoscale/paged": "673f90ffb59bca66.c58fcabbfcfaf063.43da8d6415fe4ef4.2c97e2004afbabab.51e6b0a2949d6121",
    "round-robin/decode-priority/unified/fixed/flat": "a3b7da8e728366ff.fd7e54fe10a88f30.c651900299547d97.233f3ea4e4a9c759.81fb52a5f2ca1690",
    "round-robin/decode-priority/unified/fixed/paged": "542bcaeaee0f624d.9075b828f9ab08a0.c651900299547d97.232e2a7226653b28.8c633e2c0a1c7a91",
    "round-robin/decode-priority/unified/autoscale/flat": "95fafa5135cd3331.8bfb07bdf041f4cd.512d85bf3e64259a.b76fe30e83aa8586.7fae2f55397984e1",
    "round-robin/decode-priority/unified/autoscale/paged": "95fafa5135cd3331.8bfb07bdf041f4cd.512d85bf3e64259a.b76fe30e83aa8586.81d5d8f54efaef7a",
    "round-robin/decode-priority/1p2d/fixed/flat": "48b85acfd1895323.ee68937176ad61b0.79c095069f5092f1.698f8fffea245e05.60acbadcbe90cfa1",
    "round-robin/decode-priority/1p2d/fixed/paged": "1d3079abfe99b77b.ccf8f3c94e14d7ea.d9ca663baa6c2821.3724175036560c42.4378e3cbc6bfa33a",
    "round-robin/decode-priority/1p2d/autoscale/flat": "80648ad39da4ba35.dfe8c5e867feeb88.04b6dd1c0b6395fc.f86d46ed67bf1e60.5866134f5a98c5cf",
    "round-robin/decode-priority/1p2d/autoscale/paged": "80648ad39da4ba35.dfe8c5e867feeb88.04b6dd1c0b6395fc.f86d46ed67bf1e60.fc9799651dbbeea7",
    "round-robin/prefill-first/unified/fixed/flat": "8d9fb1a0d90d4810.ee179be54ecc31f5.c651900299547d97.f756e42b52a489c2.7b912612d4d8b69e",
    "round-robin/prefill-first/unified/fixed/paged": "1c1eb21da611336a.1cbe713cc5a1638e.c651900299547d97.2a59acee997af0bd.a0f19ea9341c6331",
    "round-robin/prefill-first/unified/autoscale/flat": "6ef1a4b569b96c6f.ddcf4742c69c81da.74adc7e8ba14baea.b8414a724ec734b7.bfcd87d9aa168b73",
    "round-robin/prefill-first/unified/autoscale/paged": "9a0702f36adfbc72.cb0ad3418d402541.74adc7e8ba14baea.9353c2587e84ac57.d884006be035c2c4",
    "round-robin/prefill-first/1p2d/fixed/flat": "d280387294d6e563.2a07e430fdf6a769.e6e9a042429409b3.8a57eef73e04abfc.d650521db7956b74",
    "round-robin/prefill-first/1p2d/fixed/paged": "2f2a9c81d9bf404b.c4262a3a034e08ce.878b8e34e6324d8c.1a46c5906a288e41.902b4d920a3560c5",
    "round-robin/prefill-first/1p2d/autoscale/flat": "691041ca098d8374.6daa94c34b1bee6a.0bb75edff0729442.5a3bf6991ad3eb47.fadbede14cd5cb39",
    "round-robin/prefill-first/1p2d/autoscale/paged": "280edca7f8a42e7e.6c3755ebe23a8231.fa6a945f7b39e013.822980564dbe5552.65004ca3d180749a",
}


def test_golden_covers_cells():
    assert sorted(GOLDEN) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_golden_digests(cell):
    want = dict(zip(VIEWS, GOLDEN[cell].split(".")))
    assert _views(cell) == want


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in CELLS:
        print(f'    "{name}": "{_digest(name)}",')
    print("}")
