window.BENCHMARK_DATA = {
  "lastUpdate": 1792237117040,
  "entries": {
    "Containment join benchmarks": [
      {
        "commit": {
          "id": "7b41ed951a9719f76949e3e6d27c7aff2ac84412",
          "message": "Add live ingest: epoch snapshots, gap-aware re-encoding, compaction — single-core run, exp=batch scale=0.02 docscale=0.2 buffer=128 pagesize=4096; elapsed = virtual disk time + wall CPU",
          "timestamp": "2026-08-08T07:52:42Z"
        },
        "date": 1786175562029,
        "tool": "go",
        "benches": [
          {
            "name": "batch/D1/MHCJ+Rollup/serial",
            "value": 22696923,
            "unit": "ns/op",
            "extra": "pageIO=61 pairs=1183 wall=697µs"
          },
          {
            "name": "batch/D1/MHCJ+Rollup/batch",
            "value": 12718083,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=1183 wall=518µs"
          },
          {
            "name": "batch/D2/MHCJ+Rollup/serial",
            "value": 22086881,
            "unit": "ns/op",
            "extra": "pageIO=57 pairs=19 wall=887µs"
          },
          {
            "name": "batch/D2/MHCJ+Rollup/batch",
            "value": 13118713,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=19 wall=919µs"
          },
          {
            "name": "batch/D3/MHCJ+Rollup/serial",
            "value": 22188199,
            "unit": "ns/op",
            "extra": "pageIO=57 pairs=8 wall=988µs"
          },
          {
            "name": "batch/D3/MHCJ+Rollup/batch",
            "value": 13150736,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=8 wall=951µs"
          },
          {
            "name": "batch/D4/MHCJ+Rollup/serial",
            "value": 41754669,
            "unit": "ns/op",
            "extra": "pageIO=151 pairs=14308 wall=1.755ms"
          },
          {
            "name": "batch/D4/MHCJ+Rollup/batch",
            "value": 17264389,
            "unit": "ns/op",
            "extra": "pageIO=29 pairs=14308 wall=1.664ms"
          },
          {
            "name": "batch/D5/MHCJ+Rollup/serial",
            "value": 64279382,
            "unit": "ns/op",
            "extra": "pageIO=250 pairs=25274 wall=4.479ms"
          },
          {
            "name": "batch/D5/MHCJ+Rollup/batch",
            "value": 32454272,
            "unit": "ns/op",
            "extra": "pageIO=41 pairs=25274 wall=14.454ms"
          },
          {
            "name": "batch/D6/MHCJ+Rollup/serial",
            "value": 20877439,
            "unit": "ns/op",
            "extra": "pageIO=52 pairs=2967 wall=677µs"
          },
          {
            "name": "batch/D6/MHCJ+Rollup/batch",
            "value": 15814287,
            "unit": "ns/op",
            "extra": "pageIO=11 pairs=2967 wall=3.814ms"
          },
          {
            "name": "batch/D7/MHCJ+Rollup/serial",
            "value": 67527846,
            "unit": "ns/op",
            "extra": "pageIO=266 pairs=28230 wall=4.528ms"
          },
          {
            "name": "batch/D7/MHCJ+Rollup/batch",
            "value": 21475369,
            "unit": "ns/op",
            "extra": "pageIO=44 pairs=28230 wall=2.875ms"
          },
          {
            "name": "batch/D8/MHCJ+Rollup/serial",
            "value": 28905677,
            "unit": "ns/op",
            "extra": "pageIO=90 pairs=8424 wall=1.106ms"
          },
          {
            "name": "batch/D8/MHCJ+Rollup/batch",
            "value": 14244699,
            "unit": "ns/op",
            "extra": "pageIO=18 pairs=8424 wall=845µs"
          },
          {
            "name": "batch/D9/MHCJ+Rollup/serial",
            "value": 24761944,
            "unit": "ns/op",
            "extra": "pageIO=72 pairs=8017 wall=562µs"
          },
          {
            "name": "batch/D9/MHCJ+Rollup/batch",
            "value": 13088786,
            "unit": "ns/op",
            "extra": "pageIO=14 pairs=8017 wall=489µs"
          },
          {
            "name": "batch/D10/MHCJ+Rollup/serial",
            "value": 65153655,
            "unit": "ns/op",
            "extra": "pageIO=266 pairs=28230 wall=2.154ms"
          },
          {
            "name": "batch/D10/MHCJ+Rollup/batch",
            "value": 20858707,
            "unit": "ns/op",
            "extra": "pageIO=44 pairs=28230 wall=2.259ms"
          },
          {
            "name": "batch/D1-D10 mix/MHCJRollup/serial",
            "value": 380232615,
            "unit": "ns/op",
            "extra": "pageIO=1322 pairs=116660 wall=17.833ms"
          },
          {
            "name": "batch/D1-D10 mix/MHCJRollup/batch",
            "value": 174188041,
            "unit": "ns/op",
            "extra": "pageIO=237 pairs=116660 wall=28.788ms"
          }
        ]
      },
      {
        "commit": {
          "id": "77204cbb313bc23dfaed4a6c8504fca286047232",
          "message": "Define the repo benchmark: dblp-join, xmark-routed, xmark-ingest, with wall CPU, page I/O and per-layer self time reported separately — 2-core run, exp=batch scale=0.02 docscale=0.2 buffer=128 pagesize=4096; elapsed = virtual disk time + wall CPU",
          "timestamp": "2026-10-17T11:38:37Z"
        },
        "date": 1792237117040,
        "tool": "go",
        "benches": [
          {
            "name": "batch/D1/MHCJ+Rollup/fixed",
            "value": 22469428,
            "unit": "ns/op",
            "extra": "pageIO=61 pairs=1183 wall=469µs"
          },
          {
            "name": "batch/D1/MHCJ+Rollup/batch",
            "value": 12742932,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=1183 wall=543µs"
          },
          {
            "name": "batch/D2/MHCJ+Rollup/fixed",
            "value": 21627952,
            "unit": "ns/op",
            "extra": "pageIO=57 pairs=19 wall=428µs"
          },
          {
            "name": "batch/D2/MHCJ+Rollup/batch",
            "value": 12687210,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=19 wall=487µs"
          },
          {
            "name": "batch/D3/MHCJ+Rollup/fixed",
            "value": 22251676,
            "unit": "ns/op",
            "extra": "pageIO=57 pairs=8 wall=1.052ms"
          },
          {
            "name": "batch/D3/MHCJ+Rollup/batch",
            "value": 13341304,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=8 wall=1.141ms"
          },
          {
            "name": "batch/D4/MHCJ+Rollup/fixed",
            "value": 41716876,
            "unit": "ns/op",
            "extra": "pageIO=151 pairs=14308 wall=1.717ms"
          },
          {
            "name": "batch/D4/MHCJ+Rollup/batch",
            "value": 17839964,
            "unit": "ns/op",
            "extra": "pageIO=29 pairs=14308 wall=2.24ms"
          },
          {
            "name": "batch/D5/MHCJ+Rollup/fixed",
            "value": 61736174,
            "unit": "ns/op",
            "extra": "pageIO=250 pairs=25274 wall=1.936ms"
          },
          {
            "name": "batch/D5/MHCJ+Rollup/batch",
            "value": 20674046,
            "unit": "ns/op",
            "extra": "pageIO=41 pairs=25274 wall=2.674ms"
          },
          {
            "name": "batch/D6/MHCJ+Rollup/fixed",
            "value": 24641131,
            "unit": "ns/op",
            "extra": "pageIO=52 pairs=2967 wall=4.441ms"
          },
          {
            "name": "batch/D6/MHCJ+Rollup/batch",
            "value": 20898601,
            "unit": "ns/op",
            "extra": "pageIO=11 pairs=2967 wall=8.899ms"
          },
          {
            "name": "batch/D7/MHCJ+Rollup/fixed",
            "value": 68209303,
            "unit": "ns/op",
            "extra": "pageIO=266 pairs=28230 wall=5.209ms"
          },
          {
            "name": "batch/D7/MHCJ+Rollup/batch",
            "value": 22484812,
            "unit": "ns/op",
            "extra": "pageIO=44 pairs=28230 wall=3.885ms"
          },
          {
            "name": "batch/D8/MHCJ+Rollup/fixed",
            "value": 28907168,
            "unit": "ns/op",
            "extra": "pageIO=90 pairs=8424 wall=1.107ms"
          },
          {
            "name": "batch/D8/MHCJ+Rollup/batch",
            "value": 14700569,
            "unit": "ns/op",
            "extra": "pageIO=18 pairs=8424 wall=1.301ms"
          },
          {
            "name": "batch/D9/MHCJ+Rollup/fixed",
            "value": 25347236,
            "unit": "ns/op",
            "extra": "pageIO=72 pairs=8017 wall=1.147ms"
          },
          {
            "name": "batch/D9/MHCJ+Rollup/batch",
            "value": 13567657,
            "unit": "ns/op",
            "extra": "pageIO=14 pairs=8017 wall=968µs"
          },
          {
            "name": "batch/D10/MHCJ+Rollup/fixed",
            "value": 65654032,
            "unit": "ns/op",
            "extra": "pageIO=266 pairs=28230 wall=2.654ms"
          },
          {
            "name": "batch/D10/MHCJ+Rollup/batch",
            "value": 22072184,
            "unit": "ns/op",
            "extra": "pageIO=44 pairs=28230 wall=3.472ms"
          },
          {
            "name": "batch/D1-D10 mix/MHCJRollup/fixed",
            "value": 382560976,
            "unit": "ns/op",
            "extra": "pageIO=1322 pairs=116660 wall=20.161ms"
          },
          {
            "name": "batch/D1-D10 mix/MHCJRollup/batch",
            "value": 171009279,
            "unit": "ns/op",
            "extra": "pageIO=237 pairs=116660 wall=25.609ms"
          }
        ]
      }
    ]
  }
}
