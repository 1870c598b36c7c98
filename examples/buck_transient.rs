//! Exercises the circuit substrate end to end: a synchronous buck phase
//! (12 V → 1 V, the second stage of the paper's A3@12V) simulated with
//! the backward-Euler transient engine, checked against the textbook
//! ripple formula.
//!
//! ```sh
//! cargo run --example buck_transient
//! ```

use vertical_power_delivery::circuit::{
    Netlist, PwmSchedule, SwitchState, TransientPlan, TransientResult, TransientSettings,
};
use vertical_power_delivery::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let v_in = 12.0;
    let v_out = 1.0;
    let duty = v_out / v_in;
    let f_sw = Hertz::from_megahertz(2.0);
    let l = Henries::from_nanohenries(150.0);
    let c = Farads::from_microfarads(22.0);
    let r_load = Ohms::from_milliohms(50.0); // 20 A at 1 V

    let mut net = Netlist::new();
    let vin = net.node("vin");
    let sw = net.node("sw");
    let out = net.node("out");
    net.voltage_source(vin, net.ground(), Volts::new(v_in))?;
    let pwm = PwmSchedule::new(f_sw, duty, 0.0)?;
    net.switch(
        vin,
        sw,
        Ohms::from_milliohms(4.0),
        Ohms::new(1e6),
        Some(pwm),
        SwitchState::Off,
    )?;
    net.switch(
        sw,
        net.ground(),
        Ohms::from_milliohms(4.0),
        Ohms::new(1e6),
        Some(pwm.complementary()),
        SwitchState::On,
    )?;
    let l_id = net.inductor(sw, out, l, Amps::ZERO)?;
    net.capacitor(out, net.ground(), c, Volts::ZERO)?;
    net.resistor(out, net.ground(), r_load)?;

    let settings = TransientSettings::new(
        Seconds::from_microseconds(40.0),
        Seconds::from_nanoseconds(0.5),
    )?;
    let mut plan = TransientPlan::compile(&net, &settings)?;
    let result = plan.run()?;

    let v_avg = TransientResult::settled_mean(result.voltage(out), 0.25);
    let i_avg = TransientResult::settled_mean(result.current(l_id), 0.25);
    let ripple = TransientResult::settled_ripple(result.current(l_id), 0.25);
    let analytic_ripple = v_out * (1.0 - duty) / (l.value() * f_sw.value());

    println!("synchronous buck {v_in} V -> {v_out} V at {f_sw}, L = {l}, C = {c}");
    println!("  settled output voltage : {v_avg:.4} V (target {v_out} V)");
    println!("  settled inductor current: {i_avg:.2} A (target ~20 A)");
    println!("  simulated current ripple: {ripple:.2} A pp");
    println!("  analytic  current ripple: {analytic_ripple:.2} A pp  (ΔI = V_o(1-D)/(L·f))");
    println!(
        "  agreement: {:.1}%",
        100.0 * (1.0 - (ripple - analytic_ripple).abs() / analytic_ripple)
    );
    Ok(())
}
