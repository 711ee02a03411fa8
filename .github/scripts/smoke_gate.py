#!/usr/bin/env python3
"""Gate the CI smoke run: every check made on the benchmark harness outputs.

Usage: python3 .github/scripts/smoke_gate.py [DIR]

DIR (default /tmp) holds the outputs of these harness runs:

  sim_speed_json DIR/BENCH_sim_speed.json
  trace_json --workload pingpong DIR/BENCH_trace.json
  scaling_json --smoke DIR/BENCH_scaling.json
  scaling_json --smoke --engine-threads 4 DIR/BENCH_scaling_parallel.json
  metrics_json --smoke --heatmap DIR/BENCH_heatmap.html DIR/BENCH_metrics.json

Counts and deterministic structure are gated. Wall-clock is gated only as
the engine-over-reference speedup of BENCH_sim_speed.json, a ratio of two
engines measured in one process on one host.
"""
import json
import os
import sys

DIR = sys.argv[1] if len(sys.argv) > 1 else '/tmp'


def path(name):
    return os.path.join(DIR, name)


def check_trace():
    """Chrome-trace export of 4x4 pingpong."""
    doc = json.load(open(path('BENCH_trace.json')))
    events = doc['traceEvents']
    assert events, 'trace must not be empty'
    real = [e for e in events if e.get('ph') != 'M']
    assert real, 'trace must contain non-metadata events'
    tracks = [e for e in events if e.get('name') == 'thread_name']
    assert len(tracks) >= 2, 'pingpong must produce per-node tracks'
    print(f"{len(real)} events on {len(tracks)} tracks: OK")


# System::run over System::run_reference, per sim_speed row.
MIN_ENGINE_SPEEDUP = 2.0


def check_sim_speed():
    """Engine-over-reference simulation speed, per workload."""
    doc = json.load(open(path('BENCH_sim_speed.json')))
    assert doc['host_cores'] >= 1 and doc['rustc'], doc
    rows = doc['workloads']
    names = {r['name'] for r in rows}
    assert 'jacobi_62x62_15pe_hybrid' in names, names
    for row in rows:
        assert row['speedup'] >= MIN_ENGINE_SPEEDUP, row
        assert row['after_pe_ticks_per_cycle'] < row['before_pe_ticks_per_cycle'], row
    worst = min(r['speedup'] for r in rows)
    print(f"{len(rows)} sim_speed rows, engine/reference >= {worst:.2}x: OK")


def check_parallel():
    """parallel_engine section of the sweep at 4 engine threads."""
    doc = json.load(open(path('BENCH_scaling_parallel.json')))
    assert doc['host_cores'] >= 1 and doc['rustc'], doc
    assert doc['sweep_engine_threads'] == 4, doc['sweep_engine_threads']
    for topo in doc['topologies']:
        for row in topo['rows']:
            assert row['host_threads'] == 4, row
    points = doc['parallel_engine']['points']
    assert points, 'parallel_engine must produce points'
    for point in points:
        threads = [r['threads'] for r in point['rows']]
        assert threads == [1, 2, 4], threads
    print(f"{len(points)} tiled points benchmarked: OK")


def check_coherence():
    """coherence section of the plain sweep."""
    doc = json.load(open(path('BENCH_scaling.json')))
    rows = doc['coherence']['rows']
    assert rows, 'coherence sweep must produce rows'
    topos = {r['topology'] for r in rows}
    assert topos == {'4x4', '8x8', '16x16'}, topos
    # Count gates only — cycle and protocol-message counts are
    # deterministic; wall-clock is not gated.
    for row in rows:
        if row['mode'] == 'dii':
            assert row['protocol_messages'] == 0, row
        else:
            assert row['mode'] == 'mesi', row
            assert row['invalidations'] > 0, row
            assert row['fetches'] > 0, row
            assert row['label'].endswith('_mesi'), row
    modes = {(r['topology'], r['mode']) for r in rows}
    assert len(modes) == 6, modes
    print(f"{len(rows)} coherence rows across {len(topos)} tori: OK")


def check_utilization():
    """utilization sections of the profiler harness and the plain sweep,
    and the heatmap artifact."""
    for p in (path('BENCH_metrics.json'), path('BENCH_scaling.json')):
        doc = json.load(open(p))
        assert doc['host_cores'] >= 1 and doc['rustc'], p
        rows = doc['utilization']['rows']
        assert rows, f'{p}: utilization must produce rows'
        for row in rows:
            s = sum(row['breakdown'].values())
            assert abs(s - 1.0) < 1e-3, (p, row['label'], s)
            assert row['windows'] >= 2, (p, row['label'])
            assert row['attributed_cycles'] > 0, (p, row['label'])
        print(f"{p}: {len(rows)} utilization rows, fractions sum to 1.0: OK")
    html = open(path('BENCH_heatmap.html')).read()
    assert '<svg' in html and '</svg>' in html, 'heatmap must inline an SVG'
    assert '<animate' in html, 'heatmap must animate over sample windows'
    print('heatmap artifact renders an animated SVG: OK')


def check_resilience():
    """resilience section of the plain sweep."""
    doc = json.load(open(path('BENCH_scaling.json')))
    rows = doc['resilience']['rows']
    assert rows, 'resilience sweep must produce rows'
    for row in rows:
        assert row['outcome'] == 'ok', row
        assert row['faults_injected'] > 0, row
    print(f"{len(rows)} fault scenarios recovered: OK")


if __name__ == '__main__':
    for check in (check_sim_speed, check_trace, check_parallel, check_coherence, check_utilization,
                  check_resilience):
        check()
