"""Totally ordered HDDL 1.0 subset: parser, printer, and grounder."""
