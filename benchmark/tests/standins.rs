//! Fidelity of the std-only stand-ins: each behaves, where the REFILL
//! crates rely on it, like the crates.io crate it replaces.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

mod rayon_standin {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn collect_keeps_index_order_through_map_and_map_init() {
        let doubled: Vec<usize> = (0..10_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|i| i * 2).collect::<Vec<_>>());

        let data: Vec<u32> = (0..5_000).collect();
        let inits = AtomicUsize::new(0);
        let plus_one: Vec<u64> = data
            .par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u64>::new()
                },
                |scratch, &x| {
                    scratch.push(u64::from(x));
                    u64::from(x) + 1
                },
            )
            .collect();
        assert_eq!(plus_one, (1..=5_000).collect::<Vec<u64>>());
        // One scratch value per worker, not per item.
        let inits = inits.load(Ordering::Relaxed);
        assert!(
            (1..=rayon::current_num_threads()).contains(&inits),
            "{inits} inits"
        );

        let empty: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn for_each_visits_every_item_once() {
        let sum = AtomicUsize::new(0);
        (0..1_000).into_par_iter().for_each(|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1_000 / 2);
    }

    #[test]
    fn uses_two_threads_when_the_machine_has_them() {
        if rayon::current_num_threads() < 2 {
            return;
        }
        // Every item waits (bounded) until a second thread has shown up, so
        // one fast worker cannot drain the range before the other starts.
        let seen = Mutex::new(HashSet::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        (0..64).into_par_iter().for_each(|_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            while seen.lock().unwrap().len() < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
        });
        assert!(seen.lock().unwrap().len() >= 2, "only one thread ran items");
    }
}

mod crossbeam_standin {
    use super::*;
    use crossbeam::channel::bounded;
    use crossbeam::deque::{Steal, Worker};

    #[test]
    fn deque_pops_lifo_and_steals_fifo() {
        let worker = Worker::new_lifo();
        let stealer = worker.stealer();
        for i in 0..4 {
            worker.push(i);
        }
        assert_eq!(worker.pop(), Some(3));
        assert_eq!(stealer.steal(), Steal::Success(0));
        assert_eq!(stealer.steal(), Steal::Success(1));
        assert_eq!(worker.pop(), Some(2));
        assert_eq!(worker.pop(), None);
        assert_eq!(stealer.steal(), Steal::Empty);
    }

    #[test]
    fn bounded_channel_blocks_the_send_past_capacity() {
        const CAP: usize = 3;
        let (tx, rx) = bounded::<usize>(CAP);
        let sent = AtomicUsize::new(0);
        crossbeam::thread::scope(|scope| {
            scope.spawn(|_| {
                for i in 0..=CAP {
                    tx.send(i).unwrap();
                    sent.fetch_add(1, Ordering::SeqCst);
                }
            });
            let deadline = Instant::now() + Duration::from_secs(10);
            while sent.load(Ordering::SeqCst) < CAP && Instant::now() < deadline {
                std::thread::yield_now();
            }
            // The queue is full: the next send must not return until a
            // message is taken. Give it ample chances to (wrongly) do so.
            for _ in 0..10_000 {
                std::thread::yield_now();
            }
            assert_eq!(
                sent.load(Ordering::SeqCst),
                CAP,
                "send {} did not block",
                CAP + 1
            );
            assert_eq!(rx.recv(), Ok(0));
            while sent.load(Ordering::SeqCst) <= CAP && Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert_eq!(
                sent.load(Ordering::SeqCst),
                CAP + 1,
                "send stayed blocked after a recv"
            );
        })
        .unwrap();
        assert_eq!(
            (rx.try_recv(), rx.try_recv(), rx.try_recv()),
            (Ok(1), Ok(2), Ok(3))
        );
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn recv_ends_when_the_sender_is_dropped() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn scoped_threads_borrow_and_join() {
        let mut slots = [0u32; 4];
        crossbeam::thread::scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                scope.spawn(move |_| *slot = i as u32 * 10);
            }
        })
        .unwrap();
        assert_eq!(slots, [0, 10, 20, 30]);
    }
}

mod bytes_standin {
    use bytes::{Buf, BufMut, Bytes, BytesMut};
    use eventlog::PacketId;
    use netsim::NodeId;
    use protocols::packet::{decode_frame, encode_frame, DataPacket, Frame};

    #[test]
    fn put_and_get_are_big_endian() {
        let mut buf = BytesMut::with_capacity(7);
        buf.put_u8(0xAB);
        buf.put_u16(0x0102);
        buf.put_u32(0x0304_0506);
        let frozen = buf.freeze();
        assert_eq!(&frozen[..], &[0xAB, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06]);

        let mut cursor: &[u8] = &frozen;
        cursor.advance(1);
        assert_eq!(cursor.get_u16(), 0x0102);
        assert_eq!(cursor.get_u32(), 0x0304_0506);
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn radio_frames_round_trip() {
        let frame = Frame {
            src: NodeId(7),
            dst: NodeId(300),
            dsn: 42,
            packet: DataPacket {
                id: PacketId::new(NodeId(1199), 0xDEAD_BEEF),
                thl: 3,
            },
            payload: Bytes::from_static(b"co2=417ppm"),
        };
        let wire = encode_frame(&frame);
        assert_eq!(wire[0] as usize, wire.len() - 1, "length prefix");
        assert_eq!(&wire[1..3], &[0, 7], "src is big-endian");
        assert_eq!(decode_frame(&wire), Ok(frame));
        assert_eq!(Bytes::copy_from_slice(&wire), wire);
    }
}

mod rand_standin {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn gen_range_honours_its_ends() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..3usize)] = true;
        }
        assert_eq!(seen, [true, true, true, false], "0..3 is exclusive");
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..=3usize)] = true;
        }
        assert_eq!(seen, [true; 4], "0..=3 is inclusive");
        for _ in 0..1_000 {
            let v: i64 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&v));
            let f = rng.gen_range(-0.3..0.3);
            assert!((-0.3..0.3).contains(&f));
        }
        assert_eq!(rng.gen_range(9..=9u32), 9);
    }

    #[test]
    fn floats_are_in_the_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let draws: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>()).collect();
        assert!(draws.iter().all(|v| (0.0..1.0).contains(v)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((0.48..0.52).contains(&mean), "mean {mean}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let draws = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(2015), draws(2015));
        assert_ne!(draws(2015), draws(2016));
    }
}

mod serde_json_standin {
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("the call must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic carries a message")
    }

    #[test]
    fn every_call_panics_with_the_stated_message() {
        let expected = "JSON is outside the benchmark's measured path";
        assert_eq!(serde_json::OUTSIDE_MEASURED_PATH, expected);
        assert_eq!(
            panic_message(|| drop(serde_json::to_string(&1u32))),
            expected
        );
        assert_eq!(
            panic_message(|| drop(serde_json::to_string_pretty(&1u32))),
            expected
        );
        assert_eq!(
            panic_message(|| drop(serde_json::to_writer(Vec::new(), &1u32))),
            expected
        );
        assert_eq!(
            panic_message(|| drop(serde_json::from_str::<u32>("1"))),
            expected
        );
    }
}
