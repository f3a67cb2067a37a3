//! Chrome `trace_event` JSON export.
//!
//! [`chrome_trace`] renders an event stream as the JSON-object flavour of
//! the Trace Event Format (`{"traceEvents": [...]}`), loadable in
//! Perfetto or `chrome://tracing`.  Track layout:
//!
//! * one *process* per chip (`chip N`), with one *thread* per column and
//!   one for the horizontal bus,
//! * a `board` process with one thread per bridge lane,
//! * a `compile` process holding the mapper/router/explorer phase spans,
//!   router slot placements and registry counters.
//!
//! Reference ticks map directly to microsecond timestamps; compile-side
//! events (which carry no tick) are laid out on a sequence axis.

use crate::analyze::PowerTimeline;
use crate::json::Value;
use crate::{BridgeTransferEvent, BusSlotEvent, RouteRejectEvent, RouteSlotEvent, TraceEvent};

const PID_COMPILE: u64 = 1;
const PID_BOARD: u64 = 2;
const PID_POWER: u64 = 3;
const PID_CHIP_BASE: u64 = 10;
const TID_HORIZONTAL_BUS: u64 = 1_000;

fn event(name: &str, ph: &str, ts: u64, pid: u64, tid: u64) -> Vec<(String, Value)> {
    vec![
        ("name".to_owned(), Value::str(name)),
        ("ph".to_owned(), Value::str(ph)),
        ("ts".to_owned(), Value::num(ts)),
        ("pid".to_owned(), Value::num(pid)),
        ("tid".to_owned(), Value::num(tid)),
    ]
}

fn with_args(mut fields: Vec<(String, Value)>, args: Vec<(String, Value)>) -> Value {
    fields.push(("args".to_owned(), Value::Obj(args)));
    Value::Obj(fields)
}

fn with_dur(mut fields: Vec<(String, Value)>, dur: u64) -> Vec<(String, Value)> {
    fields.push(("dur".to_owned(), Value::num(dur.max(1))));
    fields
}

fn metadata(kind: &str, pid: u64, tid: u64, label: &str) -> Value {
    let mut fields = event(kind, "M", 0, pid, tid);
    fields.pop(); // metadata events carry no "tid" when naming a process
    if kind == "thread_name" {
        fields.push(("tid".to_owned(), Value::num(tid)));
    }
    with_args(fields, vec![("name".to_owned(), Value::str(label))])
}

/// Render `events` as Chrome `trace_event` JSON.
///
/// The output is one JSON object; parse it back with [`crate::json::parse`]
/// to validate (CI does exactly this round trip on the exported DDC
/// timeline).
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    finish(build(events))
}

/// Render `events` as Chrome `trace_event` JSON with the attributed
/// power timeline appended as Perfetto counter tracks.
///
/// A `power` process carries one `"C"` (counter) event per timeline
/// bucket with `compute_mw` / `interconnect_mw` / `leakage_mw` series —
/// Perfetto stacks the three into one area chart aligned with the
/// reference-tick timeline of the simulation tracks.  Build the timeline
/// with [`crate::analyze::power_timeline`] over the same events.
pub fn chrome_trace_with_power(events: &[TraceEvent], power: &PowerTimeline) -> String {
    let mut all = build(events);
    all.push(metadata("process_name", PID_POWER, 0, "power"));
    all.push(metadata(
        "thread_name",
        PID_POWER,
        0,
        "attributed power (mW)",
    ));
    for sample in &power.samples {
        all.push(with_args(
            event("power (mW)", "C", sample.start_tick, PID_POWER, 0),
            vec![
                ("compute_mw".to_owned(), Value::Num(sample.compute_mw)),
                (
                    "interconnect_mw".to_owned(),
                    Value::Num(sample.interconnect_mw),
                ),
                ("leakage_mw".to_owned(), Value::Num(sample.leakage_mw)),
            ],
        ));
    }
    finish(all)
}

fn finish(all: Vec<Value>) -> String {
    Value::Obj(vec![
        ("traceEvents".to_owned(), Value::Arr(all)),
        ("displayTimeUnit".to_owned(), Value::str("ms")),
    ])
    .to_json()
}

fn build(events: &[TraceEvent]) -> Vec<Value> {
    let mut out: Vec<Value> = Vec::new();
    let mut tracks: Vec<(u64, u64, String)> = Vec::new();
    let mut track = |pid: u64, tid: u64, label: String| {
        if !tracks.iter().any(|(p, t, _)| (*p, *t) == (pid, tid)) {
            tracks.push((pid, tid, label));
        }
    };
    // Compile-side events carry no reference tick; give them a strictly
    // increasing sequence timestamp so spans nest correctly.
    let mut seq: u64 = 0;
    for e in events {
        match e {
            TraceEvent::ColumnFiring {
                chip,
                column,
                tick,
                count,
            } => {
                let (pid, tid) = (PID_CHIP_BASE + u64::from(*chip), u64::from(*column));
                track(pid, tid, format!("column {column}"));
                let mut fields = event("firing", "i", *tick, pid, tid);
                fields.push(("s".to_owned(), Value::str("t")));
                out.push(with_args(
                    fields,
                    vec![("count".to_owned(), Value::num(*count))],
                ));
            }
            TraceEvent::DividerTick {
                chip,
                column,
                tick,
                count,
            } => {
                let (pid, tid) = (PID_CHIP_BASE + u64::from(*chip), u64::from(*column));
                track(pid, tid, format!("column {column}"));
                let start = tick.saturating_sub(count.saturating_sub(1));
                out.push(with_args(
                    with_dur(event("step", "X", start, pid, tid), *count),
                    vec![("cycles".to_owned(), Value::num(*count))],
                ));
            }
            TraceEvent::ZormStall {
                chip,
                column,
                tick,
                cycles,
            } => {
                let (pid, tid) = (PID_CHIP_BASE + u64::from(*chip), u64::from(*column));
                track(pid, tid, format!("column {column}"));
                let start = tick.saturating_sub(cycles.saturating_sub(1));
                out.push(with_args(
                    with_dur(event("zorm stall", "X", start, pid, tid), *cycles),
                    vec![("cycles".to_owned(), Value::num(*cycles))],
                ));
            }
            TraceEvent::RateMatcherRelock {
                chip,
                column,
                tick,
                count,
            } => {
                let (pid, tid) = (PID_CHIP_BASE + u64::from(*chip), u64::from(*column));
                track(pid, tid, format!("column {column}"));
                let mut fields = event("zorm relock", "i", *tick, pid, tid);
                fields.push(("s".to_owned(), Value::str("t")));
                out.push(with_args(
                    fields,
                    vec![("count".to_owned(), Value::num(*count))],
                ));
            }
            TraceEvent::BusSlot(slot) => {
                let BusSlotEvent {
                    chip,
                    tick,
                    from,
                    to,
                    words,
                    count,
                } = &**slot;
                let (pid, tid) = (PID_CHIP_BASE + u64::from(*chip), TID_HORIZONTAL_BUS);
                track(pid, tid, "horizontal bus".to_owned());
                let to_list = to
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                out.push(with_args(
                    with_dur(
                        event(
                            &format!("slot c{from}→c{{{to_list}}}"),
                            "X",
                            *tick,
                            pid,
                            tid,
                        ),
                        *count,
                    ),
                    vec![
                        ("words".to_owned(), Value::num(*words)),
                        ("count".to_owned(), Value::num(*count)),
                    ],
                ));
            }
            TraceEvent::BridgeTransfer(transfer) => {
                let BridgeTransferEvent {
                    lane,
                    from_chip,
                    to_chip,
                    tick,
                    words,
                    count,
                } = &**transfer;
                let (pid, tid) = (PID_BOARD, u64::from(*lane));
                track(pid, tid, format!("bridge lane {lane}"));
                out.push(with_args(
                    with_dur(
                        event(
                            &format!("chip{from_chip}→chip{to_chip}"),
                            "X",
                            *tick,
                            pid,
                            tid,
                        ),
                        *count,
                    ),
                    vec![
                        ("words".to_owned(), Value::num(*words)),
                        ("count".to_owned(), Value::num(*count)),
                    ],
                ));
            }
            TraceEvent::PhaseBegin { phase } => {
                track(PID_COMPILE, 0, "phases".to_owned());
                seq += 1;
                out.push(with_args(event(phase, "B", seq, PID_COMPILE, 0), vec![]));
            }
            TraceEvent::PhaseEnd { phase } => {
                track(PID_COMPILE, 0, "phases".to_owned());
                seq += 1;
                out.push(with_args(event(phase, "E", seq, PID_COMPILE, 0), vec![]));
            }
            TraceEvent::RouteSlot(slot) => {
                let RouteSlotEvent {
                    split,
                    cycle,
                    from,
                    to,
                    words,
                    edge,
                } = &**slot;
                track(
                    PID_COMPILE,
                    1 + u64::from(*split),
                    format!("router split {split}"),
                );
                out.push(with_args(
                    with_dur(
                        event(
                            &format!("c{from}→c{to}"),
                            "X",
                            *cycle,
                            PID_COMPILE,
                            1 + u64::from(*split),
                        ),
                        *words,
                    ),
                    vec![
                        ("words".to_owned(), Value::num(*words)),
                        ("edge".to_owned(), Value::num(*edge)),
                    ],
                ));
            }
            TraceEvent::RouteReject(reject) => {
                let RouteRejectEvent { code, detail } = &**reject;
                track(PID_COMPILE, 0, "phases".to_owned());
                seq += 1;
                let mut fields = event(&format!("route reject: {code}"), "i", seq, PID_COMPILE, 0);
                fields.push(("s".to_owned(), Value::str("p")));
                out.push(with_args(
                    fields,
                    vec![("detail".to_owned(), Value::str(detail.clone()))],
                ));
            }
            TraceEvent::Counter { name, delta } => {
                track(PID_COMPILE, 2_000, "counters".to_owned());
                seq += 1;
                out.push(with_args(
                    event(name, "C", seq, PID_COMPILE, 2_000),
                    vec![("value".to_owned(), Value::num(*delta))],
                ));
            }
            TraceEvent::FaultColumnKilled { chip, column, tick } => {
                let (pid, tid) = (PID_CHIP_BASE + u64::from(*chip), u64::from(*column));
                track(pid, tid, format!("column {column}"));
                let mut fields = event("fault: column killed", "i", *tick, pid, tid);
                fields.push(("s".to_owned(), Value::str("g")));
                out.push(with_args(fields, vec![]));
            }
            TraceEvent::FaultLaneKilled {
                lane,
                from_chip,
                to_chip,
                tick,
            } => {
                let (pid, tid) = (PID_BOARD, u64::from(*lane));
                track(pid, tid, format!("bridge lane {lane}"));
                let mut fields = event("fault: lane killed", "i", *tick, pid, tid);
                fields.push(("s".to_owned(), Value::str("g")));
                out.push(with_args(
                    fields,
                    vec![
                        ("from_chip".to_owned(), Value::num(u64::from(*from_chip))),
                        ("to_chip".to_owned(), Value::num(u64::from(*to_chip))),
                    ],
                ));
            }
            TraceEvent::FaultStalled { tick, window } => {
                track(PID_BOARD, 3_000, "faults".to_owned());
                let mut fields = event("fault: stalled", "i", *tick, PID_BOARD, 3_000);
                fields.push(("s".to_owned(), Value::str("g")));
                out.push(with_args(
                    fields,
                    vec![("window".to_owned(), Value::num(*window))],
                ));
            }
        }
    }
    let mut all = Vec::with_capacity(out.len() + 2 * tracks.len());
    let mut named_pids: Vec<u64> = Vec::new();
    for (pid, tid, label) in &tracks {
        if !named_pids.contains(pid) {
            named_pids.push(*pid);
            let name = match *pid {
                PID_COMPILE => "compile".to_owned(),
                PID_BOARD => "board".to_owned(),
                p => format!("chip {}", p - PID_CHIP_BASE),
            };
            all.push(metadata("process_name", *pid, 0, &name));
        }
        all.push(metadata("thread_name", *pid, *tid, label));
    }
    all.extend(out);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn export_round_trips_and_names_tracks() {
        let events = vec![
            TraceEvent::PhaseBegin {
                phase: "mapper.compile",
            },
            RouteSlotEvent {
                split: 0,
                cycle: 3,
                from: 0,
                to: 1,
                words: 4,
                edge: 2,
            }
            .into(),
            TraceEvent::PhaseEnd {
                phase: "mapper.compile",
            },
            TraceEvent::DividerTick {
                chip: 0,
                column: 2,
                tick: 125,
                count: 1,
            },
            BusSlotEvent {
                chip: 0,
                tick: 40,
                from: 1,
                to: vec![2, 3],
                words: 8,
                count: 1,
            }
            .into(),
            BridgeTransferEvent {
                lane: 0,
                from_chip: 0,
                to_chip: 1,
                tick: 500,
                words: 16,
                count: 2,
            }
            .into(),
            TraceEvent::Counter {
                name: "explore.states_pruned",
                delta: 9,
            },
        ];
        let text = chrome_trace(&events);
        let parsed = json::parse(&text).expect("exporter must emit valid JSON");
        let items = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        // 7 payload events + metadata rows for 3 processes and 6 threads
        // (phases, router split, counters, column, bus, bridge lane).
        assert_eq!(items.len(), 7 + 3 + 6);
        let phases: Vec<&str> = items
            .iter()
            .filter_map(|e| e.get("ph").and_then(|v| v.as_str()))
            .collect();
        assert!(phases.contains(&"B") && phases.contains(&"E"));
        assert!(phases.contains(&"X") && phases.contains(&"C") && phases.contains(&"M"));
        let names: Vec<&str> = items
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
            })
            .collect();
        assert!(names.contains(&"chip 0"));
        assert!(names.contains(&"column 2"));
        assert!(names.contains(&"horizontal bus"));
        assert!(names.contains(&"bridge lane 0"));
    }

    #[test]
    fn power_export_appends_counter_tracks() {
        use crate::analyze::{PowerSample, PowerTimeline};
        let events = vec![TraceEvent::DividerTick {
            chip: 0,
            column: 0,
            tick: 4,
            count: 5,
        }];
        let power = PowerTimeline {
            bucket_ticks: 5,
            bucket_seconds: 5e-6,
            samples: vec![
                PowerSample {
                    start_tick: 0,
                    compute_mw: 120.5,
                    interconnect_mw: 3.25,
                    leakage_mw: 10.0,
                },
                PowerSample {
                    start_tick: 5,
                    compute_mw: 0.0,
                    interconnect_mw: 0.0,
                    leakage_mw: 10.0,
                },
            ],
        };
        let text = chrome_trace_with_power(&events, &power);
        let parsed = json::parse(&text).expect("valid JSON");
        let items = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        let counters: Vec<_> = items
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|v| v.as_str()) == Some("C")
                    && e.get("name").and_then(|v| v.as_str()) == Some("power (mW)")
            })
            .collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(
            counters[0]
                .get("args")
                .and_then(|a| a.get("compute_mw"))
                .and_then(|v| v.as_num()),
            Some(120.5)
        );
        assert_eq!(counters[1].get("ts").and_then(|v| v.as_num()), Some(5.0));
        let names: Vec<&str> = items
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
            })
            .collect();
        assert!(names.contains(&"power"));
        assert!(names.contains(&"attributed power (mW)"));
        // The plain exporter is unchanged by the power-aware one.
        assert!(!chrome_trace(&events).contains("power"));
    }

    #[test]
    fn batched_span_starts_are_back_dated() {
        let text = chrome_trace(&[TraceEvent::DividerTick {
            chip: 0,
            column: 0,
            tick: 9,
            count: 10,
        }]);
        let parsed = json::parse(&text).expect("valid JSON");
        let step = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .and_then(|items| {
                items
                    .iter()
                    .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("step"))
            })
            .expect("step event");
        assert_eq!(step.get("ts").and_then(|v| v.as_num()), Some(0.0));
        assert_eq!(step.get("dur").and_then(|v| v.as_num()), Some(10.0));
    }
}
