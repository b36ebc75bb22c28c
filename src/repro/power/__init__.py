"""Power modelling: CACTI-like structure estimates and the event-based core power model."""
