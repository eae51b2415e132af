//! Property-based tests for the work-stealing grid queue, running on
//! the in-repo `mcm-testkit` harness: under randomized worker counts,
//! chunk sizes, and steal orders, every grid index leaves the queue
//! exactly once — never dropped, never duplicated.

use mcm_engine::rng::Xoshiro256;
use mcm_exec::pool::run_grid;
use mcm_exec::queue::{GridQueue, WorkerState};
use mcm_testkit::prelude::*;

/// Asserts `items` is exactly the multiset `{0, 1, ..., len-1}`.
fn assert_exact_cover(mut items: Vec<usize>, len: usize, what: &str) {
    items.sort_unstable();
    assert_eq!(
        items.len(),
        len,
        "{what}: {} items for a {len}-grid",
        items.len()
    );
    for (pos, &i) in items.iter().enumerate() {
        assert_eq!(pos, i, "{what}: index {i} dropped or duplicated");
    }
}

/// Randomly interleaved workers (each with its own seeded steal order)
/// collectively drain the queue to an exact cover of the grid.
#[test]
fn interleaved_workers_never_drop_or_duplicate() {
    check(
        "interleaved_workers_never_drop_or_duplicate",
        &(
            usizes(0..200), // grid length
            usizes(1..9),   // worker count
            usizes(1..17),  // chunk size
            any_u64(),      // steal-order + schedule seed
        ),
        |&(len, workers, chunk, seed)| {
            let q = GridQueue::new(len, workers, chunk);
            let mut states: Vec<WorkerState> =
                (0..workers).map(|w| WorkerState::seeded(seed, w)).collect();
            let mut live: Vec<usize> = (0..workers).collect();
            let mut schedule = Xoshiro256::seeded(&[seed, 0xD1CE]);
            let mut seen = Vec::new();
            while !live.is_empty() {
                let pick = schedule.next_range(live.len() as u64) as usize;
                let w = live[pick];
                match q.next_item(w, &mut states[w]) {
                    Some(i) => seen.push(i),
                    None => {
                        live.swap_remove(pick);
                    }
                }
            }
            assert_exact_cover(seen, len, "interleaved drain");
        },
    );
}

/// Adversarial chunk-level schedule: random pops and steals against
/// arbitrary victims yield pairwise-disjoint chunks that tile the grid.
#[test]
fn random_pop_steal_schedule_tiles_the_grid() {
    check(
        "random_pop_steal_schedule_tiles_the_grid",
        &(usizes(0..150), usizes(1..7), usizes(1..11), any_u64()),
        |&(len, workers, chunk, seed)| {
            let q = GridQueue::new(len, workers, chunk);
            let mut rng = Xoshiro256::seeded(&[seed, 0x57EA1]);
            let mut chunks = Vec::new();
            // 2*len + slack operations guarantees the queue drains even
            // when most draws hit empty deques.
            for _ in 0..(4 * len + 8) {
                let w = rng.next_range(workers as u64) as usize;
                let taken = if rng.next_range(2) == 0 {
                    q.pop_chunk(w)
                } else {
                    q.steal_chunk(w)
                };
                if let Some(c) = taken {
                    chunks.push(c);
                }
            }
            // Drain any leftovers deterministically.
            for w in 0..workers {
                while let Some(c) = q.pop_chunk(w) {
                    chunks.push(c);
                }
            }
            let items: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_exact_cover(items, len, "chunk schedule");
        },
    );
}

/// The full pool produces grid-order results equal to the serial map
/// under randomized job counts and grid sizes — with real threads.
#[test]
fn pool_matches_serial_map_under_random_job_counts() {
    check_with(
        &Config {
            cases: 32,
            ..Config::default()
        },
        "pool_matches_serial_map_under_random_job_counts",
        &(usizes(0..120), usizes(1..9), any_u64()),
        |&(len, jobs, seed)| {
            let items: Vec<u64> = (0..len as u64).collect();
            let expect: Vec<u64> = items
                .iter()
                .map(|&x| x.wrapping_mul(31).rotate_left(7))
                .collect();
            let got = run_grid(&items, jobs, seed, 0, |_, &x| {
                x.wrapping_mul(31).rotate_left(7)
            })
            .into_complete();
            assert_eq!(got, expect, "len {len} jobs {jobs}");
        },
    );
}
