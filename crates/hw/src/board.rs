//! The µPnP control board (paper §3.2, Figures 6 and 7).
//!
//! The board sits between the MCU and the peripherals: it hosts the shared
//! multivibrator bank, the channel mux, the interrupt circuit and the
//! communication-bus switch. Its behavioural contract to the MCU is three
//! pins: `start` (trigger a scan), `output` (the daisy-chained pulse train)
//! and `INT` (a peripheral was connected or disconnected).
//!
//! Power management follows §3.2: the board is *power-gated off* until the
//! interrupt fires, then draws scan power only until every channel has been
//! identified. Average draw therefore scales linearly with how often
//! peripherals change — the crux of the Figure 12 result.

use upnp_sim::{EnergyMeter, SimDuration, SimRng, SimTime, Trace};

use crate::calib::{self, BoardCalibration};
use crate::channels::ChannelId;
use crate::components::{Capacitor, ToleranceClass};
use crate::encoding::{DecodeError, PulseCodec};
use crate::id::DeviceTypeId;
use crate::multivibrator::{measure, Monostable};
use crate::peripheral::PeripheralBoard;

/// How channel slots are sequenced during a scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScanPolicy {
    /// Each slot lasts exactly as long as needed: an empty channel times
    /// out after [`calib::T_EMPTY`], an occupied one ends after its fourth
    /// pulse plus [`calib::T_SETTLE`]. This is the production policy.
    Adaptive,
    /// Every channel gets the same fixed slot `tch`, as drawn in the
    /// paper's Figure 5. Slower, kept for the figure regeneration and the
    /// slot-policy ablation.
    FixedSlot(SimDuration),
}

/// The decode result for one channel of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelResult {
    /// No peripheral connected.
    Empty,
    /// Four pulses decoded to this identifier.
    Identified(DeviceTypeId),
    /// A pulse fell outside every decode window; the MCU treats the channel
    /// as faulty and will retry on the next interrupt.
    DecodeFailed {
        /// The failing stage (0..4).
        stage: u8,
        /// What went wrong with that pulse.
        error: DecodeError,
    },
}

/// A channel's outcome within a [`ScanOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelReading {
    /// Which channel was read.
    pub channel: ChannelId,
    /// What the identification routine concluded.
    pub result: ChannelResult,
}

/// The result of one identification scan.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// When the scan was triggered.
    pub started: SimTime,
    /// When the last channel slot closed and the board power-gated off.
    pub finished: SimTime,
    /// Energy consumed by the board during the scan, joules.
    pub energy_j: f64,
    /// Per-channel results, in channel order.
    pub channels: Vec<ChannelReading>,
}

impl ScanOutcome {
    /// Total scan duration.
    pub fn duration(&self) -> SimDuration {
        self.finished.since(self.started)
    }

    /// Iterates over the identifiers of all successfully identified
    /// channels.
    pub fn identified(&self) -> impl Iterator<Item = (ChannelId, DeviceTypeId)> + '_ {
        self.channels.iter().filter_map(|r| match r.result {
            ChannelResult::Identified(id) => Some((r.channel, id)),
            _ => None,
        })
    }
}

/// Error returned when plugging a peripheral into the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlugError {
    /// The channel index is beyond the board's channel count.
    NoSuchChannel,
    /// The channel already has a peripheral connected.
    ChannelOccupied,
}

impl std::fmt::Display for PlugError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlugError::NoSuchChannel => write!(f, "no such channel"),
            PlugError::ChannelOccupied => write!(f, "channel already occupied"),
        }
    }
}

impl std::error::Error for PlugError {}

/// The µPnP control board.
pub struct ControlBoard {
    monostables: [Monostable; 4],
    calibration: BoardCalibration,
    codec: PulseCodec,
    policy: ScanPolicy,
    channels: [Option<Box<PeripheralBoard>>; calib::CHANNEL_COUNT],
    interrupt: bool,
    meter: EnergyMeter,
    scans: u64,
}

/// Blueprint for sampled control boards.
///
/// The board's fleet-invariant structure (pulse codec, scan policy,
/// channel layout) lives in the template; [`BoardTemplate::instantiate`]
/// draws only the per-board component jitter — the same RNG values, in
/// the same order, that [`ControlBoard::sample`] draws, so a fleet built
/// from one template is bit-identical to one sampled board by board.
#[derive(Debug, Clone, Copy)]
pub struct BoardTemplate {
    codec: PulseCodec,
    policy: ScanPolicy,
}

impl Default for BoardTemplate {
    fn default() -> Self {
        BoardTemplate {
            codec: PulseCodec::paper(),
            policy: ScanPolicy::Adaptive,
        }
    }
}

impl BoardTemplate {
    /// Stamps out one as-manufactured board, sampling component values
    /// and the factory `k·C` calibration residual from `rng`.
    pub fn instantiate(&self, rng: &mut SimRng) -> ControlBoard {
        let monostables = std::array::from_fn(|_| {
            let cap = Capacitor::sample(calib::C_NOMINAL, ToleranceClass::OnePercent, rng);
            Monostable::sample(cap, rng)
        });
        // Factory calibration: measure each stage's true k·C against the
        // MCU crystal; the stored value carries the measurement residual.
        let kc_measured = std::array::from_fn(|i| {
            let true_kc = monostables[i].kc(25.0);
            true_kc * (1.0 + rng.tolerance(calib::KC_CALIBRATION_RESIDUAL))
        });
        let mut board = ControlBoard::build(monostables, BoardCalibration { kc_measured });
        board.codec = self.codec;
        board.policy = self.policy;
        board
    }
}

impl ControlBoard {
    /// A reusable blueprint for fleet-scale board construction.
    pub fn template() -> BoardTemplate {
        BoardTemplate::default()
    }

    /// Builds a board with as-manufactured components sampled from `rng`
    /// and a factory `k·C` calibration with realistic residual error.
    pub fn sample(rng: &mut SimRng) -> Self {
        BoardTemplate::default().instantiate(rng)
    }

    /// Builds an ideal board (exact components, perfect calibration).
    pub fn ideal() -> Self {
        let monostables =
            std::array::from_fn(|_| Monostable::ideal(Capacitor::ideal(calib::C_NOMINAL)));
        Self::build(monostables, BoardCalibration::ideal())
    }

    fn build(monostables: [Monostable; 4], calibration: BoardCalibration) -> Self {
        ControlBoard {
            monostables,
            calibration,
            codec: PulseCodec::paper(),
            policy: ScanPolicy::Adaptive,
            channels: Default::default(),
            interrupt: false,
            meter: EnergyMeter::new("upnp-board"),
            scans: 0,
        }
    }

    /// Overrides the slot policy (see [`ScanPolicy`]).
    pub fn set_policy(&mut self, policy: ScanPolicy) {
        self.policy = policy;
    }

    /// Number of peripheral channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Returns the peripheral connected to `channel`, if any.
    pub fn peripheral(&self, channel: ChannelId) -> Option<&PeripheralBoard> {
        self.channels.get(channel.0 as usize)?.as_deref()
    }

    /// Connects a peripheral, raising the interrupt line (§3.2).
    ///
    /// # Errors
    ///
    /// Fails if the channel does not exist or is already occupied.
    pub fn plug(
        &mut self,
        channel: ChannelId,
        peripheral: PeripheralBoard,
    ) -> Result<(), PlugError> {
        let slot = self
            .channels
            .get_mut(channel.0 as usize)
            .ok_or(PlugError::NoSuchChannel)?;
        if slot.is_some() {
            return Err(PlugError::ChannelOccupied);
        }
        *slot = Some(Box::new(peripheral));
        self.interrupt = true;
        Ok(())
    }

    /// Disconnects the peripheral on `channel`, raising the interrupt line.
    pub fn unplug(&mut self, channel: ChannelId) -> Option<PeripheralBoard> {
        let p = self.channels.get_mut(channel.0 as usize)?.take()?;
        self.interrupt = true;
        Some(*p)
    }

    /// Whether the connect/disconnect interrupt is pending.
    pub fn interrupt_pending(&self) -> bool {
        self.interrupt
    }

    /// Cumulative board energy across all scans (the board draws nothing
    /// while gated off).
    pub fn energy(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Number of scans run so far.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Runs the identification routine at virtual time `now` and ambient
    /// temperature `temp_c`, clearing the interrupt.
    ///
    /// Walks every channel slot, measures and decodes each pulse, and
    /// accounts energy: base scan power for the whole window plus pulse
    /// power while the output line is high.
    pub fn scan(&mut self, now: SimTime, temp_c: f64) -> ScanOutcome {
        self.interrupt = false;
        self.scans += 1;
        let outcome = self.walk(now, temp_c, |_, _, _| {});
        self.meter.charge_j(outcome.energy_j);
        outcome
    }

    /// The waveform a scan at `now` and `temp_c` puts on the board's
    /// lines (Figures 2, 3 and 5): the start pulse, each channel's enable
    /// slot and the output pulse train. Replaying it has no side effect:
    /// the interrupt, the scan count and the energy meter are untouched.
    pub fn waveform(&self, now: SimTime, temp_c: f64) -> Trace {
        let mut trace = Trace::new(4096);
        self.walk(now, temp_c, |at, signal, value| {
            trace.record(at, signal, value)
        });
        trace
    }

    /// The pulse train of one scan, which `record` sees as logic-level
    /// transitions, and its outcome.
    fn walk(
        &self,
        now: SimTime,
        temp_c: f64,
        mut record: impl FnMut(SimTime, &'static str, f64),
    ) -> ScanOutcome {
        let started = now;
        let mut t = now;

        record(t, "start", 1.0);
        t += calib::T_TRIGGER;
        record(t, "start", 0.0);

        let mut pulse_high = SimDuration::ZERO;
        let mut readings = Vec::with_capacity(self.channels.len());

        for idx in 0..self.channels.len() {
            let channel = ChannelId(idx as u8);
            let slot_start = t;
            record(t, channel.enable_signal(), 1.0);

            let result = match &self.channels[idx] {
                None => {
                    t += calib::T_EMPTY;
                    ChannelResult::Empty
                }
                Some(peripheral) => {
                    let mut bytes = [0u8; 4];
                    let mut failure: Option<(u8, DecodeError)> = None;
                    // Indexing is clearer than zipping here: the loop walks
                    // two parallel tables (monostables and resistors).
                    #[allow(clippy::needless_range_loop)]
                    for stage in 0..4 {
                        let mono = &self.monostables[stage];
                        t += mono.propagation();
                        let r = peripheral.stage_resistance(stage, temp_c);
                        let width = mono.pulse_width(r, temp_c);
                        record(t, "output", 1.0);
                        record(t + width, "output", 0.0);
                        t += width;
                        pulse_high += width;
                        let normalised = self.calibration.normalise(stage, measure(width));
                        match self.codec.decode(normalised) {
                            Ok(b) => bytes[stage] = b,
                            Err(e) => {
                                failure.get_or_insert((stage as u8, e));
                            }
                        }
                    }
                    t += calib::T_SETTLE;
                    match failure {
                        Some((stage, error)) => ChannelResult::DecodeFailed { stage, error },
                        None => ChannelResult::Identified(DeviceTypeId::from_bytes(bytes)),
                    }
                }
            };

            // Under the fixed-slot policy the slot always lasts `tch`,
            // padding out whatever time the pulses left unused.
            if let ScanPolicy::FixedSlot(tch) = self.policy {
                let used = t.since(slot_start);
                if used < tch {
                    t += tch - used;
                }
            }

            record(t, channel.enable_signal(), 0.0);
            readings.push(ChannelReading { channel, result });
        }

        let duration = t.since(started);
        let energy_j = calib::P_SCAN_BASE_W * duration.as_secs_f64()
            + calib::P_PULSE_W * pulse_high.as_secs_f64();
        ScanOutcome {
            started,
            finished: t,
            energy_j,
            channels: readings,
        }
    }
}

impl std::fmt::Debug for ControlBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlBoard")
            .field("channels", &self.channels.len())
            .field("interrupt", &self.interrupt)
            .field("scans", &self.scans)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::prototypes;
    use crate::peripheral::Interconnect;

    fn plug_ideal(board: &mut ControlBoard, ch: u8, id: DeviceTypeId) {
        let p = PeripheralBoard::manufacture_ideal(id, Interconnect::Adc).unwrap();
        board.plug(ChannelId(ch), p).unwrap();
    }

    #[test]
    fn ideal_board_identifies_ideal_peripheral() {
        let mut board = ControlBoard::ideal();
        plug_ideal(&mut board, 0, prototypes::TMP36);
        let outcome = board.scan(SimTime::ZERO, 25.0);
        assert_eq!(
            outcome.channels[0].result,
            ChannelResult::Identified(prototypes::TMP36)
        );
        assert_eq!(outcome.channels[1].result, ChannelResult::Empty);
        assert_eq!(outcome.channels[2].result, ChannelResult::Empty);
    }

    #[test]
    fn interrupt_raised_on_plug_and_cleared_by_scan() {
        let mut board = ControlBoard::ideal();
        assert!(!board.interrupt_pending());
        plug_ideal(&mut board, 1, prototypes::BMP180);
        assert!(board.interrupt_pending());
        board.scan(SimTime::ZERO, 25.0);
        assert!(!board.interrupt_pending());
        let p = board.unplug(ChannelId(1)).unwrap();
        assert_eq!(p.device_id, prototypes::BMP180);
        assert!(board.interrupt_pending());
        assert!(board.unplug(ChannelId(1)).is_none());
    }

    #[test]
    fn realistic_board_identifies_realistic_peripherals() {
        // 50 sampled boards × sampled precision peripherals: decode must be
        // error-free at room temperature — this is the design-margin claim.
        let mut rng = SimRng::seed(101);
        for _ in 0..50 {
            let mut board = ControlBoard::sample(&mut rng);
            for (i, id) in prototypes::ALL.iter().take(3).enumerate() {
                let p = PeripheralBoard::manufacture(
                    *id,
                    Interconnect::Adc,
                    ToleranceClass::PointOnePercent,
                    &mut rng,
                )
                .unwrap();
                board.plug(ChannelId(i as u8), p).unwrap();
            }
            let outcome = board.scan(SimTime::ZERO, 25.0);
            for (i, id) in prototypes::ALL.iter().take(3).enumerate() {
                assert_eq!(
                    outcome.channels[i].result,
                    ChannelResult::Identified(*id),
                    "channel {i}"
                );
            }
        }
    }

    #[test]
    fn commodity_resistors_break_decoding() {
        // The ablation claim inverted: with ±5 % parts the geometric code's
        // guard band is hopeless, so decodes must frequently fail or
        // misidentify. This is why the paper specifies precision resistors.
        let mut rng = SimRng::seed(102);
        let mut wrong = 0;
        let trials = 100;
        for _ in 0..trials {
            let mut board = ControlBoard::sample(&mut rng);
            let p = PeripheralBoard::manufacture(
                prototypes::ID20LA,
                Interconnect::Uart,
                ToleranceClass::FivePercent,
                &mut rng,
            )
            .unwrap();
            board.plug(ChannelId(0), p).unwrap();
            let outcome = board.scan(SimTime::ZERO, 25.0);
            if outcome.channels[0].result != ChannelResult::Identified(prototypes::ID20LA) {
                wrong += 1;
            }
        }
        assert!(wrong > trials / 2, "only {wrong}/{trials} misreads");
    }

    #[test]
    fn prototype_scan_times_match_paper_window() {
        let mut board = ControlBoard::ideal();
        let mut times = Vec::new();
        for id in prototypes::ALL {
            plug_ideal(&mut board, 0, id);
            let outcome = board.scan(SimTime::ZERO, 25.0);
            times.push(outcome.duration().as_millis_f64());
            board.unplug(ChannelId(0));
        }
        for (id, ms) in prototypes::ALL.iter().zip(&times) {
            assert!(
                (210.0..=310.0).contains(ms),
                "{id}: {ms:.1} ms outside paper window"
            );
        }
        // The spread across prototypes must be visible (resistor-dependent).
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 30.0, "spread {min}..{max} too narrow");
    }

    #[test]
    fn scan_energy_in_paper_band() {
        let mut board = ControlBoard::ideal();
        for id in prototypes::ALL {
            plug_ideal(&mut board, 0, id);
            let outcome = board.scan(SimTime::ZERO, 25.0);
            let mj = outcome.energy_j * 1e3;
            assert!(
                (2.0..=7.5).contains(&mj),
                "{id}: {mj:.2} mJ outside extended paper band"
            );
            board.unplug(ChannelId(0));
        }
    }

    #[test]
    fn trace_contains_four_output_pulses_per_occupied_channel() {
        let mut board = ControlBoard::ideal();
        plug_ideal(&mut board, 0, prototypes::TMP36);
        plug_ideal(&mut board, 2, prototypes::ID20LA);
        let pulses = board.waveform(SimTime::ZERO, 25.0).pulses("output");
        assert_eq!(pulses.len(), 8, "two peripherals × four pulses");
        // Pulses decode back to the plugged IDs in order.
        let codec = PulseCodec::paper();
        let t1: Vec<u8> = pulses[..4]
            .iter()
            .map(|(s, e)| codec.decode(e.since(*s)).unwrap())
            .collect();
        assert_eq!(t1, prototypes::TMP36.bytes().to_vec());
    }

    #[test]
    fn waveform_replays_a_scan_without_running_one() {
        let mut board = ControlBoard::ideal();
        plug_ideal(&mut board, 0, prototypes::TMP36);
        let first = board.waveform(SimTime::ZERO, 25.0).pulses("output");
        let shift = SimDuration::from_secs(1);
        let second = board.waveform(SimTime::ZERO + shift, 25.0).pulses("output");
        assert_eq!(second.len(), 4, "one peripheral × four pulses");
        for ((s0, e0), (s1, e1)) in first.iter().zip(&second) {
            assert_eq!((*s0 + shift, *e0 + shift), (*s1, *e1));
        }
        // The board is as it was: interrupt pending, no scan, no energy.
        assert!(board.interrupt_pending());
        assert_eq!((board.scans(), board.energy().total_j()), (0, 0.0));
        // The last channel slot closes when the scan does.
        let outcome = board.scan(SimTime::ZERO, 25.0);
        let slots = board
            .waveform(SimTime::ZERO, 25.0)
            .pulses(ChannelId(2).enable_signal());
        assert_eq!(slots.last().map(|s| s.1), Some(outcome.finished));
    }

    #[test]
    fn fixed_slot_policy_pads_slots() {
        let tch = SimDuration::from_millis(500);
        let mut adaptive = ControlBoard::ideal();
        plug_ideal(&mut adaptive, 0, prototypes::TMP36);
        let fast = adaptive.scan(SimTime::ZERO, 25.0).duration();

        let mut fixed = ControlBoard::ideal();
        fixed.set_policy(ScanPolicy::FixedSlot(tch));
        plug_ideal(&mut fixed, 0, prototypes::TMP36);
        let slow = fixed.scan(SimTime::ZERO, 25.0).duration();

        assert!(slow > fast);
        // Fixed: trigger + 3 × 500 ms.
        let expect = calib::T_TRIGGER + tch * 3;
        assert_eq!(slow, expect);
    }

    #[test]
    fn plug_errors() {
        let mut board = ControlBoard::ideal();
        plug_ideal(&mut board, 0, prototypes::TMP36);
        let dup =
            PeripheralBoard::manufacture_ideal(prototypes::BMP180, Interconnect::I2c).unwrap();
        assert_eq!(
            board.plug(ChannelId(0), dup.clone()).unwrap_err(),
            PlugError::ChannelOccupied
        );
        assert_eq!(
            board.plug(ChannelId(9), dup).unwrap_err(),
            PlugError::NoSuchChannel
        );
    }

    #[test]
    fn energy_meter_accumulates_across_scans() {
        let mut board = ControlBoard::ideal();
        plug_ideal(&mut board, 0, prototypes::TMP36);
        let e1 = {
            board.scan(SimTime::ZERO, 25.0);
            board.energy().total_j()
        };
        board.unplug(ChannelId(0));
        plug_ideal(&mut board, 0, prototypes::TMP36);
        board.scan(SimTime::ZERO + SimDuration::from_secs(10), 25.0);
        assert!(board.energy().total_j() > e1 * 1.9);
        assert_eq!(board.scans(), 2);
    }
}
