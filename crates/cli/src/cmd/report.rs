//! `refill report`.

use super::{scenario_from_flags, FlagSpec, Flags};
use citysee::{analyze, run_scenario};

pub(super) const FLAGS: FlagSpec = FlagSpec {
    cmd: "report",
    values: &["scale", "seed"],
    switches: &[],
};

/// `refill report`: simulate a scenario and print the full management
/// report (includes ground-truth scoring, so it is simulation-only).
pub fn report(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &FLAGS)?;
    let scenario = scenario_from_flags(&flags)?;
    eprintln!("simulating and analyzing '{}'…", scenario.name);
    let campaign = run_scenario(&scenario);
    let analysis = analyze(&campaign);
    print!("{}", citysee::render_management_report(&campaign, &analysis));
    Ok(())
}
