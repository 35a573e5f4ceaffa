//! Regenerates **Figure 6**: the daily composition of loss causes over the
//! 30-day campaign — the snow spike on days 9–10 and the collapse of sink
//! losses after the day-23 wiring fix.

use citysee::figures::{fig6_daily_causes, render_fig6_ascii, render_fig6_csv};

fn main() {
    let (campaign, analysis) = bench::run_and_analyze();
    let days = fig6_daily_causes(&campaign, &analysis);
    bench::write_artifact("fig6_daily_causes.csv", &render_fig6_csv(&days));
    println!("Figure 6 — daily loss-cause composition:");
    print!("{}", render_fig6_ascii(&days, &campaign.scenario));

    // A fix day past the last simulated day (a shortened `REFILL_DAYS`)
    // leaves nothing to compare.
    let fix = campaign
        .scenario
        .sink_fix_day
        .filter(|&fix| (fix as usize) < days.len());
    if let Some(fix) = fix {
        let rate = |range: &[citysee::figures::DailyCauses]| {
            let lost: usize = range.iter().map(|d| d.total).sum();
            let generated: usize = range.iter().map(|d| d.generated).sum();
            100.0 * lost as f64 / generated.max(1) as f64
        };
        let before = rate(&days[..fix as usize]);
        let after = rate(&days[fix as usize..]);
        println!(
            "\nloss rate before the sink fix: {before:.1}%, after: {after:.1}% — \
             the paper's day-23 drop"
        );
    }
}
