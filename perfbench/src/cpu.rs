//! CPU clocks, the calibration loop that turns CPU time into a cost that
//! does not move with the host's load, and the pin that keeps the client,
//! the calibration loop and the server on one CPU.
//!
//! On a shared host the speed of a CPU moves with what the neighbours run
//! on its core and cache: the same sweep request takes from 120 to 250 ms
//! of server CPU time from one second to the next. A timed window is
//! therefore priced in *reference microseconds* (`ref_us`): CPU time
//! divided by what one round of a fixed calibration loop took on the same
//! CPU around it, times 1 µs. On a CPU that runs a round in 1 µs, a
//! reference microsecond is a microsecond of CPU time.
//!
//! The loop is the benchmark's own code, built on the standard library
//! only, so a change to the program under test never changes it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::os::raw::c_long;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID`.
const THREAD_CLOCK: i32 = 3;

fn read_clock(clock: i32) -> io::Result<Duration> {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable timespec for the call.
    if unsafe { clock_gettime(clock, &mut time) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(Duration::new(time.tv_sec as u64, time.tv_nsec as u32))
}

/// CPU time process `pid` has used so far, summed over all its threads,
/// live and exited. The kernel leaves out time the threads spent waiting
/// for a CPU, hypervisor steal included.
pub fn process_time(pid: u32) -> io::Result<Duration> {
    // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) of linux/posix-timers.h.
    read_clock((!(pid as i32) << 3) | 2)
}

/// Rounds of the calibration loop per [`calibrate`] call (about 1 ms).
const ROUNDS: u32 = 500;
/// Values each round works on.
const VALUES: usize = 8;

/// Nanoseconds of CPU time one round of the calibration loop takes on the
/// calling thread's CPU now.
///
/// A round does the program's kinds of work on eight pseudo-random values,
/// in standard-library code only. It formats them as text and hashes the
/// bytes, like the serializer (the program's JSON shim formats floats with
/// the same standard-library code). It evaluates `powf`, `ln` and `exp`,
/// like the carbon and yield models. It sorts the values and copies them
/// into a fresh vector, like the floorplanner. And it updates a hash map of
/// up to 4,096 keys, like the memo. On the same runs this mix halved the
/// run-to-run spread of the priced costs that formatting alone left.
pub fn calibrate() -> io::Result<f64> {
    thread_local! {
        static MEMO: RefCell<HashMap<u64, f64>> = RefCell::new(HashMap::new());
    }
    MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        let mut text = String::with_capacity(256);
        let mut values = Vec::with_capacity(VALUES);
        let mut state: u64 = 0x5EED;
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        let mut sum = 0.0;
        let began = read_clock(THREAD_CLOCK)?;
        for _ in 0..ROUNDS {
            text.clear();
            values.clear();
            for _ in 0..VALUES {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let x = (state >> 11) as f64 / 9e15;
                let _ = write!(text, "{x},");
                sum += (1.0 + x).powf(-2.3) + (x + 0.5).ln() + (-x).exp();
                values.push(x * 7.0 % 1.3);
                *memo.entry(state >> 52).or_insert(0.0) += x;
            }
            values.sort_by(f64::total_cmp);
            let scaled: Vec<f64> = values.iter().map(|v| v * 2.0).collect();
            sum += scaled[VALUES / 2];
            for byte in text.bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
            }
        }
        std::hint::black_box((hash, sum));
        let spent = read_clock(THREAD_CLOCK)? - began;
        Ok(spent.as_secs_f64() * 1e9 / f64::from(ROUNDS))
    })
}

/// Reference microseconds of `cpu` CPU time spent where a calibration
/// round took `round_ns`.
pub fn ref_us(cpu: Duration, round_ns: f64) -> f64 {
    cpu.as_secs_f64() * 1e6 * (1e3 / round_ns)
}

/// CPU masks of up to 1024 CPUs.
type Mask = [u64; 16];

/// The calling thread restricted to one CPU; the threads and processes it
/// starts meanwhile inherit the restriction. Dropping it restores the
/// thread's previous CPUs.
pub struct Pin {
    previous: Mask,
}

impl Pin {
    /// Pin the calling thread to the lowest-numbered CPU it may run on.
    pub fn first_cpu() -> io::Result<Self> {
        let mut previous: Mask = [0; 16];
        // SAFETY: the mask is a writable buffer of the size passed.
        if unsafe { sched_getaffinity(0, size_of::<Mask>(), previous.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let cpu = (0..1024)
            .find(|cpu| previous[cpu / 64] >> (cpu % 64) & 1 == 1)
            .ok_or_else(|| io::Error::other("no CPU in the affinity mask"))?;
        let mut one: Mask = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_mask(&one)?;
        Ok(Self { previous })
    }
}

fn set_mask(mask: &Mask) -> io::Result<()> {
    // SAFETY: the mask is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, size_of::<Mask>(), mask.as_ptr()) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

impl Drop for Pin {
    fn drop(&mut self) {
        let _ = set_mask(&self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_rounds_take_positive_time() {
        let round = calibrate().unwrap();
        assert!(round > 0.0 && round < 1e6, "{round}");
        assert_eq!(ref_us(Duration::from_micros(3), 1000.0), 3.0);
    }

    #[test]
    fn a_pin_is_restored_on_drop() {
        let own = || process_time(std::process::id()).unwrap();
        let before = own();
        {
            let _pin = Pin::first_cpu().unwrap();
            calibrate().unwrap();
        }
        assert!(own() > before);
    }
}
